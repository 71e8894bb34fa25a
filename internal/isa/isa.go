// Package isa defines the RV32-like instruction set the reproduction uses
// as its processor substrate, plus a compiler from the chdl C subset and a
// tiny assembler. The SLT case study (paper §V) compiles generated C
// snippets to this ISA and runs them on the boom timing/power model.
//
// The machine is word-addressed (one cell per address, like chdl's memory
// model) and abstract: branch/jump targets are instruction indices, not
// byte offsets. That removes encoding concerns while preserving everything
// the microarchitectural model cares about: instruction classes, register
// dependencies, memory addresses and branch behavior.
package isa

import "fmt"

// Op enumerates the instruction opcodes.
type Op int

// Opcodes. The set mirrors RV32IM plus a HALT pseudo-op.
const (
	OpAdd Op = iota + 1
	OpSub
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpSlt
	OpSltu
	OpMul
	OpMulh
	OpDiv
	OpRem
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpSrai
	OpSlti
	OpLui
	OpLw
	OpSw
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu
	OpJal
	OpJalr
	OpHalt
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpSll: "sll", OpSrl: "srl", OpSra: "sra", OpSlt: "slt", OpSltu: "sltu",
	OpMul: "mul", OpMulh: "mulh", OpDiv: "div", OpRem: "rem",
	OpAddi: "addi", OpAndi: "andi", OpOri: "ori", OpXori: "xori",
	OpSlli: "slli", OpSrli: "srli", OpSrai: "srai", OpSlti: "slti",
	OpLui: "lui", OpLw: "lw", OpSw: "sw",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpBltu: "bltu", OpBgeu: "bgeu",
	OpJal: "jal", OpJalr: "jalr", OpHalt: "halt",
}

// String returns the mnemonic.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// FUClass identifies which functional unit executes an instruction; the
// boom power model charges energy per class.
type FUClass int

// Functional-unit classes.
const (
	FUALU FUClass = iota + 1
	FUMul
	FUDiv
	FULoad
	FUStore
	FUBranch
)

// String returns the class name.
func (c FUClass) String() string {
	switch c {
	case FUALU:
		return "alu"
	case FUMul:
		return "mul"
	case FUDiv:
		return "div"
	case FULoad:
		return "load"
	case FUStore:
		return "store"
	case FUBranch:
		return "branch"
	default:
		return fmt.Sprintf("fu(%d)", int(c))
	}
}

// Class maps an opcode to its functional unit.
func (o Op) Class() FUClass {
	switch o {
	case OpMul, OpMulh:
		return FUMul
	case OpDiv, OpRem:
		return FUDiv
	case OpLw:
		return FULoad
	case OpSw:
		return FUStore
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu, OpJal, OpJalr:
		return FUBranch
	default:
		return FUALU
	}
}

// IsBranch reports conditional branches (not jumps).
func (o Op) IsBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
		return true
	default:
		return false
	}
}

// NumRegs is the size of the register file.
const NumRegs = 32

// Inst is one instruction. Rd/Rs1/Rs2 are register indices (0..NumRegs-1,
// x0 hard-wired to zero). Imm is the immediate or, for branches/JAL, the
// absolute target instruction index.
type Inst struct {
	Op  Op
	Rd  int
	Rs1 int
	Rs2 int
	Imm int64
}

// BadRegister returns the first of Rd, Rs1 and Rs2 outside
// 0..NumRegs-1, and whether there is one. Interpret and boom.Run reject
// a program with such an instruction anywhere before running any of it.
func (i Inst) BadRegister() (int, bool) {
	for _, r := range [...]int{i.Rd, i.Rs1, i.Rs2} {
		if uint(r) >= NumRegs {
			return r, true
		}
	}
	return 0, false
}

// String renders the instruction in assembly-like form.
func (i Inst) String() string {
	switch {
	case i.Op == OpHalt:
		return "halt"
	case i.Op == OpJal:
		return fmt.Sprintf("jal x%d, %d", i.Rd, i.Imm)
	case i.Op == OpJalr:
		return fmt.Sprintf("jalr x%d, x%d, %d", i.Rd, i.Rs1, i.Imm)
	case i.Op.IsBranch():
		return fmt.Sprintf("%s x%d, x%d, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case i.Op == OpLw:
		return fmt.Sprintf("lw x%d, %d(x%d)", i.Rd, i.Imm, i.Rs1)
	case i.Op == OpSw:
		return fmt.Sprintf("sw x%d, %d(x%d)", i.Rs2, i.Imm, i.Rs1)
	case i.Op == OpLui:
		return fmt.Sprintf("lui x%d, %d", i.Rd, i.Imm)
	case isImmOp(i.Op):
		return fmt.Sprintf("%s x%d, x%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	default:
		return fmt.Sprintf("%s x%d, x%d, x%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}

func isImmOp(o Op) bool {
	switch o {
	case OpAddi, OpAndi, OpOri, OpXori, OpSlli, OpSrli, OpSrai, OpSlti:
		return true
	default:
		return false
	}
}

// Register-convention indices.
const (
	RegZero = 0
	RegRA   = 1
	RegSP   = 2
	RegGP   = 3
	RegA0   = 10
)

// Program is a compiled unit: instructions, entry points per function, and
// the number of words reserved for globals (placed at address 0; the
// stack grows down from the last word of data memory, 2^20 - 1 in both
// the boom model and Interpret).
type Program struct {
	Insts       []Inst
	Entry       map[string]int
	GlobalWords int
	// Start is the bootstrap index (sets up sp/gp, calls main entry, halts).
	Start int
}

// Disassemble renders the whole program.
func (p *Program) Disassemble() string {
	out := ""
	rev := map[int]string{}
	for name, idx := range p.Entry {
		rev[idx] = name
	}
	for i, ins := range p.Insts {
		if name, ok := rev[i]; ok {
			out += fmt.Sprintf("%s:\n", name)
		}
		out += fmt.Sprintf("  %4d: %s\n", i, ins)
	}
	return out
}
