package isa

import (
	"errors"
	"fmt"
)

// ErrISAStepLimit reports that functional interpretation exceeded its
// step budget.
var ErrISAStepLimit = errors.New("isa: step limit exceeded")

const interpMemWords = 1 << 20

// Interpret runs the program functionally (no timing) from its bootstrap
// and returns a0 at HALT. It validates compiled code independently of the
// boom microarchitectural model, and it is the GP fitness's screen:
// given the same window it reaches the outcome boom.Run does (halted with
// the same a0, trapped, or out of steps), several times faster, so only a
// program that halts pays for the timing model. A HALT reached after
// exactly maxSteps instructions is a step limit, as it is a timeout in
// boom.
func Interpret(p *Program, maxSteps int) (int32, error) {
	return interpret(p, p.Start, nil, maxSteps)
}

// InterpretArgs calls a specific function entry with register arguments
// (a0..a7) and returns a0 when it returns to the synthetic halt frame.
func InterpretArgs(p *Program, fn string, maxSteps int, args ...int32) (int32, error) {
	entry, ok := p.Entry[fn]
	if !ok {
		return 0, fmt.Errorf("isa: unknown function %q", fn)
	}
	if len(args) > 8 {
		return 0, fmt.Errorf("isa: more than 8 arguments")
	}
	return interpret(p, entry, args, maxSteps)
}

// Data memory is paged, as in boom: a page is allocated by the first
// store into it, and a word no store has touched reads 0.
const (
	pageBits  = 10
	pageWords = 1 << pageBits
)

type memory [interpMemWords / pageWords]*[pageWords]int32

// load reads the word at addr, which the caller has range-checked.
func (m *memory) load(addr int32) int32 {
	if pg := m[addr>>pageBits]; pg != nil {
		return pg[addr&(pageWords-1)]
	}
	return 0
}

// store writes the word at addr, which the caller has range-checked.
func (m *memory) store(addr, v int32) {
	pg := m[addr>>pageBits]
	if pg == nil {
		pg = new([pageWords]int32)
		m[addr>>pageBits] = pg
	}
	pg[addr&(pageWords-1)] = v
}

func interpret(p *Program, startPC int, args []int32, maxSteps int) (int32, error) {
	insts := p.Insts
	for pc := range insts {
		if r, bad := insts[pc].BadRegister(); bad {
			return 0, fmt.Errorf("isa: register x%d out of range at pc %d", r, pc)
		}
	}
	var regs [NumRegs]int32
	mem := new(memory)
	regs[RegSP] = int32(interpMemWords - 1)
	pc := startPC

	// Run bootstrap global initializers when entering a raw function so
	// that globals hold their declared values.
	if args != nil {
		for i := 0; i < len(insts); i++ {
			in := insts[i]
			if in.Op == OpJal && in.Rd == RegRA {
				break // end of the init prologue
			}
			switch in.Op {
			case OpAddi:
				if in.Rd != 0 {
					regs[in.Rd] = regs[in.Rs1] + int32(in.Imm)
				}
			case OpSw:
				addr := regs[in.Rs1] + int32(in.Imm)
				if addr >= 0 && addr < interpMemWords {
					mem.store(addr, regs[in.Rs2])
				}
			}
		}
		for i, a := range args {
			regs[RegA0+i] = a
		}
		// Return address: a synthetic halt cell (the instruction after the
		// bootstrap call is HALT).
		haltIdx := -1
		for i, in := range insts {
			if in.Op == OpHalt {
				haltIdx = i
				break
			}
		}
		if haltIdx < 0 {
			return 0, fmt.Errorf("isa: program has no halt")
		}
		regs[RegRA] = int32(haltIdx)
		pc = startPC
	}

	// x0 is hard-wired to zero: a write to it is undone after the
	// instruction, as in boom.
	for steps := 0; steps < maxSteps; steps++ {
		if pc < 0 || pc >= len(insts) {
			return 0, fmt.Errorf("isa: pc %d out of range", pc)
		}
		in := &insts[pc]
		next := pc + 1
		switch in.Op {
		case OpHalt:
			return regs[RegA0], nil
		case OpAdd:
			regs[in.Rd] = regs[in.Rs1] + regs[in.Rs2]
		case OpSub:
			regs[in.Rd] = regs[in.Rs1] - regs[in.Rs2]
		case OpAnd:
			regs[in.Rd] = regs[in.Rs1] & regs[in.Rs2]
		case OpOr:
			regs[in.Rd] = regs[in.Rs1] | regs[in.Rs2]
		case OpXor:
			regs[in.Rd] = regs[in.Rs1] ^ regs[in.Rs2]
		case OpSll:
			regs[in.Rd] = regs[in.Rs1] << (uint32(regs[in.Rs2]) & 31)
		case OpSrl:
			regs[in.Rd] = int32(uint32(regs[in.Rs1]) >> (uint32(regs[in.Rs2]) & 31))
		case OpSra:
			regs[in.Rd] = regs[in.Rs1] >> (uint32(regs[in.Rs2]) & 31)
		case OpSlt:
			regs[in.Rd] = b2i(regs[in.Rs1] < regs[in.Rs2])
		case OpSltu:
			regs[in.Rd] = b2i(uint32(regs[in.Rs1]) < uint32(regs[in.Rs2]))
		case OpMul:
			regs[in.Rd] = int32(int64(regs[in.Rs1]) * int64(regs[in.Rs2]))
		case OpMulh:
			regs[in.Rd] = int32((int64(regs[in.Rs1]) * int64(regs[in.Rs2])) >> 32)
		case OpDiv:
			a, b := regs[in.Rs1], regs[in.Rs2]
			switch {
			case b == 0:
				regs[in.Rd] = -1
			case a == -1<<31 && b == -1:
				regs[in.Rd] = a
			default:
				regs[in.Rd] = a / b
			}
		case OpRem:
			a, b := regs[in.Rs1], regs[in.Rs2]
			switch {
			case b == 0:
				regs[in.Rd] = a
			case a == -1<<31 && b == -1:
				regs[in.Rd] = 0
			default:
				regs[in.Rd] = a % b
			}
		case OpAddi:
			regs[in.Rd] = regs[in.Rs1] + int32(in.Imm)
		case OpAndi:
			regs[in.Rd] = regs[in.Rs1] & int32(in.Imm)
		case OpOri:
			regs[in.Rd] = regs[in.Rs1] | int32(in.Imm)
		case OpXori:
			regs[in.Rd] = regs[in.Rs1] ^ int32(in.Imm)
		case OpSlli:
			regs[in.Rd] = regs[in.Rs1] << (uint32(in.Imm) & 31)
		case OpSrli:
			regs[in.Rd] = int32(uint32(regs[in.Rs1]) >> (uint32(in.Imm) & 31))
		case OpSrai:
			regs[in.Rd] = regs[in.Rs1] >> (uint32(in.Imm) & 31)
		case OpSlti:
			regs[in.Rd] = b2i(regs[in.Rs1] < int32(in.Imm))
		case OpLui:
			regs[in.Rd] = int32(in.Imm) << 12
		case OpLw:
			addr := regs[in.Rs1] + int32(in.Imm)
			if addr < 0 || addr >= interpMemWords {
				return 0, fmt.Errorf("isa: load address %d out of range at pc %d", addr, pc)
			}
			regs[in.Rd] = mem.load(addr)
		case OpSw:
			addr := regs[in.Rs1] + int32(in.Imm)
			if addr < 0 || addr >= interpMemWords {
				return 0, fmt.Errorf("isa: store address %d out of range at pc %d", addr, pc)
			}
			mem.store(addr, regs[in.Rs2])
		case OpBeq:
			if regs[in.Rs1] == regs[in.Rs2] {
				next = int(in.Imm)
			}
		case OpBne:
			if regs[in.Rs1] != regs[in.Rs2] {
				next = int(in.Imm)
			}
		case OpBlt:
			if regs[in.Rs1] < regs[in.Rs2] {
				next = int(in.Imm)
			}
		case OpBge:
			if regs[in.Rs1] >= regs[in.Rs2] {
				next = int(in.Imm)
			}
		case OpBltu:
			if uint32(regs[in.Rs1]) < uint32(regs[in.Rs2]) {
				next = int(in.Imm)
			}
		case OpBgeu:
			if uint32(regs[in.Rs1]) >= uint32(regs[in.Rs2]) {
				next = int(in.Imm)
			}
		case OpJal:
			regs[in.Rd] = int32(pc + 1)
			next = int(in.Imm)
		case OpJalr:
			t := int(regs[in.Rs1]) + int(in.Imm)
			regs[in.Rd] = int32(pc + 1)
			next = t
		default:
			return 0, fmt.Errorf("isa: illegal opcode %v at pc %d", in.Op, pc)
		}
		regs[0] = 0
		pc = next
	}
	return 0, ErrISAStepLimit
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
