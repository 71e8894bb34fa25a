package boom

import (
	"fmt"

	"llm4eda/internal/isa"
)

// This file keeps the model's two-stage form as the test oracle of the
// fused loop in Run: refRun executes each instruction (exec), writes what
// the timing model needs into a record, and advances the interval timing
// model from that record (timeInstruction). It is the code Run replaced,
// with the fetch, retire and ring state that only it keeps moved from the
// machine into refMachine. FuzzRunMatchesReference checks that the two
// agree on every Result field.

// refMachine is the machine plus the program counter and the timing state
// that Run keeps in locals.
type refMachine struct {
	*machine
	prog *isa.Program
	pc   int

	ringPos      int
	fetchCycle   uint64
	fetchInGroup int
	lastRetire   uint64
	retireAt     uint64
	retiredHere  int
}

// refRun is Run in two stages per instruction.
func refRun(p *isa.Program, opts RunOptions) *Result {
	maxInsts := opts.Window()
	m := &refMachine{machine: newMachine(), prog: p, pc: p.Start}
	res := &Result{}

	// A register outside the register file anywhere in the program traps
	// before the first instruction.
regs:
	for pc, in := range p.Insts {
		for _, reg := range []int{in.Rd, in.Rs1, in.Rs2} {
			if reg < 0 || reg >= len(m.regs) {
				res.Trap = fmt.Errorf("%w: register x%d out of range at pc %d", ErrTrap, reg, pc)
				break regs
			}
		}
	}

	var rec instRec
	for res.Insts < maxInsts && res.Trap == nil {
		halt, trap := m.exec(&rec)
		if trap != nil {
			res.Trap = trap
			break
		}
		if halt {
			res.Halted = true
			res.ReturnValue = m.regs[isa.RegA0]
			break
		}
		res.Insts++
		res.ClassCounts[rec.class]++
		m.timeInstruction(&rec)
		if rec.class == isa.FUBranch && rec.conditional {
			res.Branches++
			if rec.mispredicted {
				res.Mispredicts++
			}
		}
		if rec.class == isa.FULoad || rec.class == isa.FUStore {
			res.CacheAccess++
			if rec.cacheMiss {
				res.CacheMisses++
			}
		}
	}
	if !res.Halted && res.Trap == nil {
		res.TimedOut = true
	}

	res.Cycles = m.lastRetire
	if res.Cycles == 0 {
		res.Cycles = 1
	}
	res.IPC = float64(res.Insts) / float64(res.Cycles)
	applyPower(res)
	return res
}

// instRec carries what the timing model needs about one retired instruction.
type instRec struct {
	class        isa.FUClass
	rs1, rs2, rd int
	memAddr      int32
	conditional  bool
	mispredicted bool
	cacheMiss    bool
	isLoad       bool
	isStore      bool
}

// exec functionally executes the instruction at pc, advancing pc, and
// fills rec for the timing model. It reports whether the instruction was
// HALT.
func (m *refMachine) exec(rec *instRec) (bool, error) {
	if m.pc < 0 || m.pc >= len(m.prog.Insts) {
		return false, fmt.Errorf("%w: pc %d out of range", ErrTrap, m.pc)
	}
	in := &m.prog.Insts[m.pc]
	*rec = instRec{class: in.Op.Class(), rs1: in.Rs1, rs2: in.Rs2, rd: in.Rd}
	r := &m.regs
	rd := func(v int32) {
		if in.Rd != 0 {
			r[in.Rd] = v
		}
	}
	next := m.pc + 1
	switch in.Op {
	case isa.OpHalt:
		return true, nil
	case isa.OpAdd:
		rd(r[in.Rs1] + r[in.Rs2])
	case isa.OpSub:
		rd(r[in.Rs1] - r[in.Rs2])
	case isa.OpAnd:
		rd(r[in.Rs1] & r[in.Rs2])
	case isa.OpOr:
		rd(r[in.Rs1] | r[in.Rs2])
	case isa.OpXor:
		rd(r[in.Rs1] ^ r[in.Rs2])
	case isa.OpSll:
		rd(r[in.Rs1] << (uint32(r[in.Rs2]) & 31))
	case isa.OpSrl:
		rd(int32(uint32(r[in.Rs1]) >> (uint32(r[in.Rs2]) & 31)))
	case isa.OpSra:
		rd(r[in.Rs1] >> (uint32(r[in.Rs2]) & 31))
	case isa.OpSlt:
		rd(boolReg(r[in.Rs1] < r[in.Rs2]))
	case isa.OpSltu:
		rd(boolReg(uint32(r[in.Rs1]) < uint32(r[in.Rs2])))
	case isa.OpMul:
		rd(int32(int64(r[in.Rs1]) * int64(r[in.Rs2])))
	case isa.OpMulh:
		rd(int32((int64(r[in.Rs1]) * int64(r[in.Rs2])) >> 32))
	case isa.OpDiv:
		// RISC-V: division by zero yields -1, overflow yields dividend.
		a, b := r[in.Rs1], r[in.Rs2]
		switch {
		case b == 0:
			rd(-1)
		case a == -1<<31 && b == -1:
			rd(a)
		default:
			rd(a / b)
		}
	case isa.OpRem:
		a, b := r[in.Rs1], r[in.Rs2]
		switch {
		case b == 0:
			rd(a)
		case a == -1<<31 && b == -1:
			rd(0)
		default:
			rd(a % b)
		}
	case isa.OpAddi:
		rd(r[in.Rs1] + int32(in.Imm))
	case isa.OpAndi:
		rd(r[in.Rs1] & int32(in.Imm))
	case isa.OpOri:
		rd(r[in.Rs1] | int32(in.Imm))
	case isa.OpXori:
		rd(r[in.Rs1] ^ int32(in.Imm))
	case isa.OpSlli:
		rd(r[in.Rs1] << (uint32(in.Imm) & 31))
	case isa.OpSrli:
		rd(int32(uint32(r[in.Rs1]) >> (uint32(in.Imm) & 31)))
	case isa.OpSrai:
		rd(r[in.Rs1] >> (uint32(in.Imm) & 31))
	case isa.OpSlti:
		rd(boolReg(r[in.Rs1] < int32(in.Imm)))
	case isa.OpLui:
		rd(int32(in.Imm) << 12)
	case isa.OpLw:
		addr := r[in.Rs1] + int32(in.Imm)
		if addr < 0 || addr >= memWords {
			return false, fmt.Errorf("%w: load address %d out of range at pc %d", ErrTrap, addr, m.pc)
		}
		rec.memAddr = addr
		rec.isLoad = true
		rec.cacheMiss = m.cacheAccess(addr)
		var v int32
		if pg := m.pages[addr>>pageBits]; pg != nil {
			v = pg.words[addr&(pageWords-1)]
		}
		rd(v)
	case isa.OpSw:
		addr := r[in.Rs1] + int32(in.Imm)
		if addr < 0 || addr >= memWords {
			return false, fmt.Errorf("%w: store address %d out of range at pc %d", ErrTrap, addr, m.pc)
		}
		rec.memAddr = addr
		rec.isStore = true
		rec.cacheMiss = m.cacheAccess(addr)
		pg := m.pages[addr>>pageBits]
		if pg == nil {
			pg = new(page)
			m.pages[addr>>pageBits] = pg
		}
		pg.words[addr&(pageWords-1)] = m.regs[in.Rs2]
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu:
		taken := false
		a, b := r[in.Rs1], r[in.Rs2]
		switch in.Op {
		case isa.OpBeq:
			taken = a == b
		case isa.OpBne:
			taken = a != b
		case isa.OpBlt:
			taken = a < b
		case isa.OpBge:
			taken = a >= b
		case isa.OpBltu:
			taken = uint32(a) < uint32(b)
		case isa.OpBgeu:
			taken = uint32(a) >= uint32(b)
		}
		rec.conditional = true
		rec.mispredicted = !m.predictBranch(m.pc, taken)
		if taken {
			next = int(in.Imm)
		}
	case isa.OpJal:
		rd(int32(m.pc + 1))
		next = int(in.Imm)
	case isa.OpJalr:
		t := int(r[in.Rs1]) + int(in.Imm)
		rd(int32(m.pc + 1))
		next = t
	default:
		return false, fmt.Errorf("%w: illegal opcode %v at pc %d", ErrTrap, in.Op, m.pc)
	}
	m.pc = next
	return false, nil
}

// timeInstruction advances the interval timing model by one instruction.
func (m *refMachine) timeInstruction(rec *instRec) {
	// Fetch bandwidth: fetchWidth instructions per cycle.
	m.fetchInGroup++
	if m.fetchInGroup >= fetchWidth {
		m.fetchInGroup = 0
		m.fetchCycle++
	}
	dispatch := m.fetchCycle

	// ROB window: cannot dispatch until the slot from robSize ago retired.
	if old := m.retireRing[m.ringPos]; old > dispatch {
		dispatch = old
		// Fetch stalls along with dispatch backpressure.
		m.fetchCycle = old
	}

	// Source readiness.
	ready := dispatch
	if t := m.regReady[rec.rs1]; t > ready {
		ready = t
	}
	if t := m.regReady[rec.rs2]; t > ready {
		ready = t
	}
	if rec.isLoad {
		if pg := m.pages[rec.memAddr>>pageBits]; pg != nil {
			if f := pg.fwd[rec.memAddr&(pageWords-1)]; f != 0 && f-1 > ready {
				ready = f - 1
			}
		}
	}

	// FU arbitration: earliest-free unit of the class.
	units := &m.fuFree[rec.class]
	best := 0
	for u := 1; u < unitCount[rec.class]; u++ {
		if units[u] < units[best] {
			best = u
		}
	}
	issue := ready
	if units[best] > issue {
		issue = units[best]
	}

	lat := uint64(aluLat)
	occupancy := uint64(1) // pipelined units accept one op per cycle
	switch rec.class {
	case isa.FUMul:
		lat = mulLat
	case isa.FUDiv:
		lat = divLat
		occupancy = divLat // unpipelined
	case isa.FULoad, isa.FUStore:
		if rec.cacheMiss {
			lat = missLat
		} else {
			lat = hitLat
		}
	}
	units[best] = issue + occupancy
	complete := issue + lat

	if rec.rd != 0 {
		m.regReady[rec.rd] = complete
	}
	if rec.isStore {
		m.forward(rec.memAddr, complete)
	}

	// Branch resolution: mispredicts refill the frontend.
	if rec.mispredicted {
		redirect := complete + mispredictPenalty
		if redirect > m.fetchCycle {
			m.fetchCycle = redirect
			m.fetchInGroup = 0
		}
	}

	// In-order retire with commitWidth per cycle.
	retire := complete
	if retire < m.retireAt {
		retire = m.retireAt
	}
	if retire == m.retireAt {
		m.retiredHere++
		if m.retiredHere >= commitWidth {
			retire++
			m.retiredHere = 0
		}
	} else {
		m.retiredHere = 1
	}
	m.retireAt = retire
	m.retireRing[m.ringPos] = retire
	m.ringPos++
	if m.ringPos == robSize {
		m.ringPos = 0
	}
	if retire > m.lastRetire {
		m.lastRetire = retire
	}
}

// forward records a store's completion cycle as its word's forwarding
// entry. The insert that takes the table past maxForward words clears
// every entry, the new one included.
func (m *refMachine) forward(addr int32, complete uint64) {
	slot := &m.pages[addr>>pageBits].fwd[addr&(pageWords-1)]
	if *slot == 0 {
		m.forwarded = append(m.forwarded, addr)
	}
	*slot = complete + 1
	if len(m.forwarded) > maxForward {
		for _, a := range m.forwarded {
			m.pages[a>>pageBits].fwd[a&(pageWords-1)] = 0
		}
		m.forwarded = m.forwarded[:0]
	}
}
