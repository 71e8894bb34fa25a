// Package boom implements the superscalar out-of-order RISC-V processor
// model that substitutes for the paper's BOOM-on-FPGA power measurement
// rig (§V). It executes isa programs functionally and, in the same pass,
// runs an interval-style out-of-order timing model: register dataflow,
// functional-unit contention, a gshare branch predictor, an L1D cache and
// a reorder-buffer window. Per-class activity counters feed a calibrated
// energy model, so every run yields the watts figure the SLT optimization
// loop maximizes.
//
// The substitution preserves what the case study needs: an optimization
// landscape where dense, port-saturating, well-predicted code scores high
// and stalling or trivial code scores low, with absolute values in the
// 4.2-5.7 W band the paper reports.
package boom

import (
	"errors"
	"fmt"

	"llm4eda/internal/isa"
)

// The core is a MediumBoom-class configuration on an FPGA, the one
// configuration the reproduction runs. Its parameters are compile-time
// constants, so the per-instruction path divides by none of them: the
// cache line, set and tag are shifts and masks, and the reorder-buffer
// ring wraps with a compare.
const (
	fetchWidth  = 4
	commitWidth = 4
	robSize     = 96

	numALU = 3
	numMul = 1
	numDiv = 1
	numMem = 2

	aluLat = 1
	mulLat = 3
	divLat = 16 // unpipelined

	bpredBits         = 12 // gshare history/table bits
	mispredictPenalty = 9

	l1Sets      = 64
	l1Ways      = 4
	l1LineWords = 8
	hitLat      = 2
	missLat     = 24

	memWords = 1 << 20
	freqMHz  = 75
)

// The energy model: per-event energies in nanojoules plus static power.
// The constants are calibrated so that realistic C snippets land in the
// paper's 4.2-5.7 W band at 75 MHz.
const (
	staticW     = 4.00
	fetchNJ     = 1.5 // per instruction fetched/decoded
	aluNJ       = 2.6
	mulNJ       = 9.5
	divNJ       = 3.0 // per busy cycle
	loadNJ      = 6.5
	storeNJ     = 7.0
	branchNJ    = 2.7
	missNJ      = 18.0 // extra per cache miss
	mispredNJ   = 13.0 // pipeline refill energy
	idleCycleNJ = 1.0  // clock-tree energy per cycle
)

// RunOptions bound one program execution.
type RunOptions struct {
	// MaxInsts bounds retired instructions (default 1_000_000).
	MaxInsts uint64
}

// numClasses sizes the arrays indexed by isa.FUClass.
const numClasses = isa.FUBranch + 1

// maxUnits is the most functional units of any class (the ALUs).
const maxUnits = numALU

// unitCount is the number of functional units of each class. Branches
// share the ALU ports.
var unitCount = [numClasses]int{
	isa.FUALU:    numALU,
	isa.FUBranch: numALU,
	isa.FUMul:    numMul,
	isa.FUDiv:    numDiv,
	isa.FULoad:   numMem,
	isa.FUStore:  numMem,
}

// Result reports functional and microarchitectural outcomes of one run.
type Result struct {
	// ReturnValue is a0 at halt.
	ReturnValue int32
	Halted      bool
	// TimedOut is true when MaxInsts was exhausted before HALT.
	TimedOut bool
	// Trap holds a fatal execution error (bad memory access, bad PC).
	Trap error

	Insts  uint64
	Cycles uint64
	IPC    float64

	// ClassCounts counts retired instructions per functional-unit class,
	// indexed by isa.FUClass.
	ClassCounts [numClasses]uint64
	Branches    uint64
	Mispredicts uint64
	CacheAccess uint64
	CacheMisses uint64

	// PowerW is the modeled average power over the run.
	PowerW  float64
	EnergyJ float64
	// RuntimeS is modeled wall-clock time of the run at the core frequency.
	RuntimeS float64
}

// String summarizes the run for logs.
func (r *Result) String() string {
	return fmt.Sprintf("insts=%d cycles=%d ipc=%.2f power=%.3fW branches=%d mispred=%d dmiss=%d",
		r.Insts, r.Cycles, r.IPC, r.PowerW, r.Branches, r.Mispredicts, r.CacheMisses)
}

// ErrTrap wraps fatal execution faults ("unwanted exceptions" in the
// paper's scoring: the snippet scores zero).
var ErrTrap = errors.New("boom: execution trap")

// Run executes the program to HALT (or the instruction bound) and returns
// timing, activity and power results.
func Run(p *isa.Program, opts RunOptions) *Result {
	maxInsts := opts.MaxInsts
	if maxInsts == 0 {
		maxInsts = 1_000_000
	}
	m := newMachine(p)
	res := &Result{}

	var rec instRec
	for res.Insts < maxInsts {
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

// applyPower folds activity counters into watts.
func applyPower(res *Result) {
	nj := float64(res.Insts) * fetchNJ
	nj += float64(res.ClassCounts[isa.FUALU]) * aluNJ
	nj += float64(res.ClassCounts[isa.FUMul]) * mulNJ
	nj += float64(res.ClassCounts[isa.FUDiv]) * divLat * divNJ
	nj += float64(res.ClassCounts[isa.FULoad]) * loadNJ
	nj += float64(res.ClassCounts[isa.FUStore]) * storeNJ
	nj += float64(res.ClassCounts[isa.FUBranch]) * branchNJ
	nj += float64(res.CacheMisses) * missNJ
	nj += float64(res.Mispredicts) * mispredNJ
	nj += float64(res.Cycles) * idleCycleNJ

	seconds := float64(res.Cycles) / (freqMHz * 1e6)
	if seconds <= 0 {
		seconds = 1e-9
	}
	res.RuntimeS = seconds
	res.EnergyJ = nj * 1e-9
	res.PowerW = staticW + res.EnergyJ/seconds
}

// --- machine state --------------------------------------------------------

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

// Data memory is paged: a page is allocated by the first store into it,
// and a word no store has touched reads 0. A page also holds its words'
// store-to-load forwarding entries.
const (
	pageBits  = 10
	pageWords = 1 << pageBits
	// maxForward bounds the forwarding table: the insert that takes it
	// past this many words clears every entry, the new one included.
	maxForward = 1 << 16
)

type page struct {
	words [pageWords]int32
	// fwd is 1 + the completion cycle of the last store to each word, or
	// 0 when the word has no forwarding entry.
	fwd [pageWords]uint64
}

type machine struct {
	prog  *isa.Program
	regs  [32]int32
	pages [memWords / pageWords]*page
	pc    int

	// timing state
	regReady     [32]uint64
	fuFree       [numClasses][maxUnits]uint64
	retireRing   [robSize]uint64 // retire cycles of the last robSize insts
	ringPos      int
	fetchCycle   uint64
	fetchInGroup int
	lastRetire   uint64
	retireAt     uint64
	retiredHere  int

	// branch predictor (gshare)
	ghr   uint32
	bpred [1 << bpredBits]uint8

	// L1D
	tags [l1Sets][l1Ways]int32 // tag, -1 invalid
	lru  [l1Sets][l1Ways]uint64
	tick uint64

	// store-to-load timing: the addresses of the words that hold a
	// forwarding entry
	forwarded []int32
}

func newMachine(p *isa.Program) *machine {
	m := &machine{prog: p, pc: p.Start}
	m.regs[isa.RegSP] = memWords - 1
	m.regs[isa.RegGP] = 0
	for set := range m.tags {
		for w := range m.tags[set] {
			m.tags[set][w] = -1
		}
	}
	return m
}

// cacheAccess updates the L1D state and reports whether it missed. The
// caller has range-checked addr, so it is non-negative.
func (m *machine) cacheAccess(addr int32) bool {
	m.tick++
	line := uint32(addr) / l1LineWords
	set := line % l1Sets
	tag := int32(line / l1Sets)
	ways, lru := &m.tags[set], &m.lru[set]
	for w, t := range ways {
		if t == tag {
			lru[w] = m.tick
			return false
		}
	}
	// miss: replace LRU
	victim := 0
	for w := 1; w < l1Ways; w++ {
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	ways[victim] = tag
	lru[victim] = m.tick
	return true
}

// predictBranch consults gshare and updates it with the outcome.
func (m *machine) predictBranch(pc int, taken bool) bool {
	idx := (uint32(pc) ^ m.ghr) & (1<<bpredBits - 1)
	ctr := m.bpred[idx]
	predicted := ctr >= 2
	if taken {
		if ctr < 3 {
			m.bpred[idx] = ctr + 1
		}
	} else if ctr > 0 {
		m.bpred[idx] = ctr - 1
	}
	m.ghr = (m.ghr << 1) | boolBit(taken)
	return predicted == taken
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// exec functionally executes the instruction at pc, advancing pc, and
// fills rec for the timing model. It reports whether the instruction was
// HALT.
func (m *machine) exec(rec *instRec) (bool, error) {
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

func boolReg(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// timeInstruction advances the interval timing model by one instruction.
func (m *machine) timeInstruction(rec *instRec) {
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
func (m *machine) forward(addr int32, complete uint64) {
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
