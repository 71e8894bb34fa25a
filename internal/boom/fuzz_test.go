package boom

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"llm4eda/internal/chdl"
	"llm4eda/internal/isa"
)

// maxFuzzWindow bounds the instructions one fuzz input may run.
const maxFuzzWindow = 50_000

// decodeProgram reads instructions from fuzz bytes. Each is four bytes,
// the opcode (0–35, so 0 and 35 are illegal) and rd, rs1 and rs2 (see
// decodeReg), then the immediate as a zig-zag varint, so any int64 can be
// an address offset or a branch or jump target. An incomplete instruction
// ends the program.
func decodeProgram(b []byte) []isa.Inst {
	var insts []isa.Inst
	for len(b) > 4 {
		imm, n := binary.Varint(b[4:])
		if n <= 0 {
			break
		}
		insts = append(insts, isa.Inst{Op: isa.Op(b[0] % 36), Rd: decodeReg(b[1]), Rs1: decodeReg(b[2]), Rs2: decodeReg(b[3]), Imm: imm})
		b = b[4+n:]
	}
	return insts
}

// decodeReg reads a register byte as its value modulo 32, except that 255
// names x32, outside the register file, so the fuzzer reaches the
// register trap while nearly every mutation still names valid registers.
func decodeReg(b byte) int {
	if b == 255 {
		return isa.NumRegs
	}
	return int(b % isa.NumRegs)
}

// encodeProgram is decodeProgram's inverse for opcodes 0–35 and
// registers 0–31.
func encodeProgram(insts []isa.Inst) []byte {
	var b []byte
	for _, in := range insts {
		b = append(b, byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2))
		b = binary.AppendVarint(b, in.Imm)
	}
	return b
}

// addSeeds seeds a fuzz target with the 52 programs of boom_golden.json
// and the program of TestROBWindowGolden, each from its bootstrap under
// the largest window.
func addSeeds(f *testing.F) {
	var progs []*isa.Program
	for _, g := range loadGolden(f) {
		progs = append(progs, g.program())
	}
	cprog, err := chdl.ParseC(robProbeSource())
	if err != nil {
		f.Fatal(err)
	}
	rob, err := isa.Compile(cprog, "main")
	if err != nil {
		f.Fatal(err)
	}
	progs = append(progs, rob)
	for _, p := range progs {
		code := encodeProgram(p.Insts)
		if !reflect.DeepEqual(decodeProgram(code), p.Insts) {
			f.Fatalf("seed program does not survive encoding")
		}
		f.Add(uint16(maxFuzzWindow-1), int64(p.Start), code)
	}
}

// FuzzRunMatchesReference runs a program decoded from fuzz bytes, from an
// arbitrary start index and under a window of 1–50,000 instructions,
// through Run and through refRun, the two-stage model Run replaced. Every
// Result field must match, floats bit for bit and the trap text included.
func FuzzRunMatchesReference(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, window uint16, start int64, code []byte) {
		p := &isa.Program{Insts: decodeProgram(code), Start: int(start)}
		maxInsts := 1 + uint64(window)%maxFuzzWindow
		got, want := Run(p, RunOptions{MaxInsts: maxInsts}), refRun(p, RunOptions{MaxInsts: maxInsts})
		if got.Trap != nil && !errors.Is(got.Trap, ErrTrap) {
			t.Errorf("trap %v does not wrap ErrTrap", got.Trap)
		}
		g, w := recordRun(maxInsts, got), recordRun(maxInsts, want)
		if got.ClassCounts != want.ClassCounts || !reflect.DeepEqual(g, w) {
			gj, _ := json.Marshal(g)
			wj, _ := json.Marshal(w)
			t.Errorf("Run diverged from the reference\n want %s\n  got %s", wj, gj)
		}
	})
}

// FuzzInterpretMatchesRun runs the same decoded programs and windows
// through isa.Interpret, the GP fitness's screen, and through Run. Both
// must reach the same outcome: halted with the same a0, trapped, or out
// of window. This is what keeps the screen exact: if Interpret ran out of
// window where Run halts, a genome the timing model scores would score
// zero.
func FuzzInterpretMatchesRun(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, window uint16, start int64, code []byte) {
		p := &isa.Program{Insts: decodeProgram(code), Start: int(start)}
		maxInsts := 1 + uint64(window)%maxFuzzWindow
		v, err := isa.Interpret(p, int(maxInsts))
		res := Run(p, RunOptions{MaxInsts: maxInsts})
		switch {
		case err == nil:
			if !res.Halted || res.ReturnValue != v {
				t.Errorf("Interpret halted with a0 = %d; Run: halted %v with a0 = %d, trap %v", v, res.Halted, res.ReturnValue, res.Trap)
			}
		case errors.Is(err, isa.ErrISAStepLimit):
			if !res.TimedOut {
				t.Errorf("Interpret ran out of window; Run: halted %v, trap %v", res.Halted, res.Trap)
			}
		default:
			if res.Trap == nil {
				t.Errorf("Interpret failed (%v); Run: halted %v, timed out %v", err, res.Halted, res.TimedOut)
			}
		}
	})
}
