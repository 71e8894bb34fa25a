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

// Config parameterizes the core. The default mirrors a MediumBoom-class
// configuration on an FPGA.
type Config struct {
	FetchWidth  int
	CommitWidth int
	ROBSize     int

	NumALU int
	NumMul int
	NumDiv int
	NumMem int

	ALULat int
	MulLat int
	DivLat int // unpipelined

	BPredBits         int // gshare history/table bits
	MispredictPenalty int

	L1Sets      int
	L1Ways      int
	L1LineWords int
	HitLat      int
	MissLat     int

	MemWords int
	FreqMHz  float64
}

// DefaultConfig returns the MediumBoom-on-FPGA-like configuration used
// throughout the reproduction.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        4,
		CommitWidth:       4,
		ROBSize:           96,
		NumALU:            3,
		NumMul:            1,
		NumDiv:            1,
		NumMem:            2,
		ALULat:            1,
		MulLat:            3,
		DivLat:            16,
		BPredBits:         12,
		MispredictPenalty: 9,
		L1Sets:            64,
		L1Ways:            4,
		L1LineWords:       8,
		HitLat:            2,
		MissLat:           24,
		MemWords:          1 << 20,
		FreqMHz:           75,
	}
}

// EnergyModel holds per-event energies in nanojoules plus static power.
// The constants are calibrated so that realistic C snippets land in the
// paper's 4.2-5.7 W band at the default 75 MHz.
type EnergyModel struct {
	StaticW     float64
	FetchNJ     float64 // per instruction fetched/decoded
	ALUNJ       float64
	MulNJ       float64
	DivNJ       float64 // per busy cycle
	LoadNJ      float64
	StoreNJ     float64
	BranchNJ    float64
	MissNJ      float64 // extra per cache miss
	MispredNJ   float64 // pipeline refill energy
	IdleCycleNJ float64 // clock-tree energy per cycle
}

// DefaultEnergy returns the calibrated energy model.
func DefaultEnergy() EnergyModel {
	return EnergyModel{
		StaticW:     4.00,
		FetchNJ:     1.5,
		ALUNJ:       2.6,
		MulNJ:       9.5,
		DivNJ:       3.0,
		LoadNJ:      6.5,
		StoreNJ:     7.0,
		BranchNJ:    2.7,
		MissNJ:      18.0,
		MispredNJ:   13.0,
		IdleCycleNJ: 1.0,
	}
}

// RunOptions bound one program execution.
type RunOptions struct {
	// MaxInsts bounds retired instructions (default 1_000_000).
	MaxInsts uint64
	Config   Config
	Energy   EnergyModel
}

func (o RunOptions) withDefaults() RunOptions {
	if o.MaxInsts == 0 {
		o.MaxInsts = 1_000_000
	}
	if o.Config.FetchWidth == 0 {
		o.Config = DefaultConfig()
	}
	if o.Energy.StaticW == 0 {
		o.Energy = DefaultEnergy()
	}
	return o
}

// numClasses sizes the arrays indexed by isa.FUClass.
const numClasses = isa.FUBranch + 1

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
	opts = opts.withDefaults()
	m := newMachine(p, opts.Config)
	res := &Result{}

	var rec instRec
	for res.Insts < opts.MaxInsts {
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
	applyPower(res, opts)
	return res
}

// applyPower folds activity counters into watts.
func applyPower(res *Result, opts RunOptions) {
	e := opts.Energy
	nj := float64(res.Insts) * e.FetchNJ
	nj += float64(res.ClassCounts[isa.FUALU]) * e.ALUNJ
	nj += float64(res.ClassCounts[isa.FUMul]) * e.MulNJ
	nj += float64(res.ClassCounts[isa.FUDiv]) * float64(opts.Config.DivLat) * e.DivNJ
	nj += float64(res.ClassCounts[isa.FULoad]) * e.LoadNJ
	nj += float64(res.ClassCounts[isa.FUStore]) * e.StoreNJ
	nj += float64(res.ClassCounts[isa.FUBranch]) * e.BranchNJ
	nj += float64(res.CacheMisses) * e.MissNJ
	nj += float64(res.Mispredicts) * e.MispredNJ
	nj += float64(res.Cycles) * e.IdleCycleNJ

	seconds := float64(res.Cycles) / (opts.Config.FreqMHz * 1e6)
	if seconds <= 0 {
		seconds = 1e-9
	}
	res.RuntimeS = seconds
	res.EnergyJ = nj * 1e-9
	res.PowerW = e.StaticW + res.EnergyJ/seconds
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
	cfg   Config
	regs  [32]int32
	pages []*page
	pc    int

	// timing state
	regReady     [32]uint64
	fuFree       [numClasses][]uint64
	retireRing   []uint64 // retire cycles of the last ROBSize insts
	ringPos      int
	fetchCycle   uint64
	fetchInGroup int
	lastRetire   uint64
	retireAt     uint64
	retiredHere  int

	// branch predictor (gshare)
	ghr   uint32
	bpred []uint8

	// L1D
	tags [][]int32 // [set][way] tag, -1 invalid
	lru  [][]uint64
	tick uint64

	// store-to-load timing: the addresses of the words that hold a
	// forwarding entry
	forwarded []int32
}

func newMachine(p *isa.Program, cfg Config) *machine {
	m := &machine{
		prog:       p,
		cfg:        cfg,
		pages:      make([]*page, (cfg.MemWords+pageWords-1)/pageWords),
		pc:         p.Start,
		retireRing: make([]uint64, cfg.ROBSize),
		bpred:      make([]uint8, 1<<uint(cfg.BPredBits)),
	}
	m.regs[isa.RegSP] = int32(cfg.MemWords - 1)
	m.regs[isa.RegGP] = 0
	m.fuFree[isa.FUALU] = make([]uint64, cfg.NumALU)
	m.fuFree[isa.FUBranch] = make([]uint64, cfg.NumALU) // branches share ALU ports
	m.fuFree[isa.FUMul] = make([]uint64, cfg.NumMul)
	m.fuFree[isa.FUDiv] = make([]uint64, cfg.NumDiv)
	m.fuFree[isa.FULoad] = make([]uint64, cfg.NumMem)
	m.fuFree[isa.FUStore] = make([]uint64, cfg.NumMem)
	m.tags = make([][]int32, cfg.L1Sets)
	m.lru = make([][]uint64, cfg.L1Sets)
	for i := range m.tags {
		m.tags[i] = make([]int32, cfg.L1Ways)
		m.lru[i] = make([]uint64, cfg.L1Ways)
		for w := range m.tags[i] {
			m.tags[i][w] = -1
		}
	}
	return m
}

// cacheAccess updates the L1D state and reports whether it missed.
func (m *machine) cacheAccess(addr int32) bool {
	m.tick++
	line := int(addr) / m.cfg.L1LineWords
	set := line % m.cfg.L1Sets
	tag := int32(line / m.cfg.L1Sets)
	ways := m.tags[set]
	for w, t := range ways {
		if t == tag {
			m.lru[set][w] = m.tick
			return false
		}
	}
	// miss: replace LRU
	victim := 0
	for w := 1; w < len(ways); w++ {
		if m.lru[set][w] < m.lru[set][victim] {
			victim = w
		}
	}
	m.tags[set][victim] = tag
	m.lru[set][victim] = m.tick
	return true
}

// predictBranch consults gshare and updates it with the outcome.
func (m *machine) predictBranch(pc int, taken bool) bool {
	mask := uint32(len(m.bpred) - 1)
	idx := (uint32(pc) ^ m.ghr) & mask
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
		if addr < 0 || int(addr) >= m.cfg.MemWords {
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
		if addr < 0 || int(addr) >= m.cfg.MemWords {
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
	cfg := &m.cfg

	// Fetch bandwidth: FetchWidth instructions per cycle.
	m.fetchInGroup++
	if m.fetchInGroup >= cfg.FetchWidth {
		m.fetchInGroup = 0
		m.fetchCycle++
	}
	dispatch := m.fetchCycle

	// ROB window: cannot dispatch until the slot from ROBSize ago retired.
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
	units := m.fuFree[rec.class]
	best := 0
	for u := 1; u < len(units); u++ {
		if units[u] < units[best] {
			best = u
		}
	}
	issue := ready
	if units[best] > issue {
		issue = units[best]
	}

	lat := uint64(cfg.ALULat)
	occupancy := uint64(1) // pipelined units accept one op per cycle
	switch rec.class {
	case isa.FUMul:
		lat = uint64(cfg.MulLat)
	case isa.FUDiv:
		lat = uint64(cfg.DivLat)
		occupancy = uint64(cfg.DivLat) // unpipelined
	case isa.FULoad, isa.FUStore:
		if rec.cacheMiss {
			lat = uint64(cfg.MissLat)
		} else {
			lat = uint64(cfg.HitLat)
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
		redirect := complete + uint64(cfg.MispredictPenalty)
		if redirect > m.fetchCycle {
			m.fetchCycle = redirect
			m.fetchInGroup = 0
		}
	}

	// In-order retire with CommitWidth per cycle.
	retire := complete
	if retire < m.retireAt {
		retire = m.retireAt
	}
	if retire == m.retireAt {
		m.retiredHere++
		if m.retiredHere >= cfg.CommitWidth {
			retire++
			m.retiredHere = 0
		}
	} else {
		m.retiredHere = 1
	}
	m.retireAt = retire
	m.retireRing[m.ringPos] = retire
	m.ringPos = (m.ringPos + 1) % cfg.ROBSize
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
