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
// timing, activity and power results. One loop does all the work: for
// each instruction it applies the functional effect, with the L1D and
// gshare updates, and advances the interval timing model by it. A HALT or
// a trap retires nothing.
func Run(p *isa.Program, opts RunOptions) *Result {
	maxInsts := opts.MaxInsts
	if maxInsts == 0 {
		maxInsts = 1_000_000
	}
	insts := p.Insts
	classes := make([]isa.FUClass, len(insts))
	for i := range insts {
		classes[i] = insts[i].Op.Class()
	}
	m := newMachine()
	r := &m.regs
	res := &Result{}

	// Timing state. The retire point only moves forward, so it is also
	// the run's last retire cycle.
	var (
		fetchCycle, retireAt               uint64
		fetchInGroup, retiredHere, ringPos int
	)
	pc := p.Start
	n := uint64(0)
run:
	for ; n < maxInsts; n++ {
		if pc < 0 || pc >= len(insts) {
			res.Trap = fmt.Errorf("%w: pc %d out of range", ErrTrap, pc)
			break
		}
		in := &insts[pc]
		cls := classes[pc]
		next := pc + 1
		lat, occupancy := uint64(aluLat), uint64(1) // pipelined units accept one op per cycle
		var (
			wait         uint64  // a load's forwarded store completion
			slot         *uint64 // a store's forwarding entry
			addr         int32
			mispredicted bool
		)
		// x0 is hard-wired to zero: a write to it is undone below.
		switch in.Op {
		case isa.OpHalt:
			res.Halted = true
			res.ReturnValue = r[isa.RegA0]
			break run
		case isa.OpAdd:
			r[in.Rd] = r[in.Rs1] + r[in.Rs2]
		case isa.OpSub:
			r[in.Rd] = r[in.Rs1] - r[in.Rs2]
		case isa.OpAnd:
			r[in.Rd] = r[in.Rs1] & r[in.Rs2]
		case isa.OpOr:
			r[in.Rd] = r[in.Rs1] | r[in.Rs2]
		case isa.OpXor:
			r[in.Rd] = r[in.Rs1] ^ r[in.Rs2]
		case isa.OpSll:
			r[in.Rd] = r[in.Rs1] << (uint32(r[in.Rs2]) & 31)
		case isa.OpSrl:
			r[in.Rd] = int32(uint32(r[in.Rs1]) >> (uint32(r[in.Rs2]) & 31))
		case isa.OpSra:
			r[in.Rd] = r[in.Rs1] >> (uint32(r[in.Rs2]) & 31)
		case isa.OpSlt:
			r[in.Rd] = boolReg(r[in.Rs1] < r[in.Rs2])
		case isa.OpSltu:
			r[in.Rd] = boolReg(uint32(r[in.Rs1]) < uint32(r[in.Rs2]))
		case isa.OpMul:
			r[in.Rd] = int32(int64(r[in.Rs1]) * int64(r[in.Rs2]))
			lat = mulLat
		case isa.OpMulh:
			r[in.Rd] = int32((int64(r[in.Rs1]) * int64(r[in.Rs2])) >> 32)
			lat = mulLat
		case isa.OpDiv:
			// RISC-V: division by zero yields -1, overflow yields dividend.
			a, b := r[in.Rs1], r[in.Rs2]
			switch {
			case b == 0:
				r[in.Rd] = -1
			case a == -1<<31 && b == -1:
				r[in.Rd] = a
			default:
				r[in.Rd] = a / b
			}
			lat, occupancy = divLat, divLat // unpipelined
		case isa.OpRem:
			a, b := r[in.Rs1], r[in.Rs2]
			switch {
			case b == 0:
				r[in.Rd] = a
			case a == -1<<31 && b == -1:
				r[in.Rd] = 0
			default:
				r[in.Rd] = a % b
			}
			lat, occupancy = divLat, divLat
		case isa.OpAddi:
			r[in.Rd] = r[in.Rs1] + int32(in.Imm)
		case isa.OpAndi:
			r[in.Rd] = r[in.Rs1] & int32(in.Imm)
		case isa.OpOri:
			r[in.Rd] = r[in.Rs1] | int32(in.Imm)
		case isa.OpXori:
			r[in.Rd] = r[in.Rs1] ^ int32(in.Imm)
		case isa.OpSlli:
			r[in.Rd] = r[in.Rs1] << (uint32(in.Imm) & 31)
		case isa.OpSrli:
			r[in.Rd] = int32(uint32(r[in.Rs1]) >> (uint32(in.Imm) & 31))
		case isa.OpSrai:
			r[in.Rd] = r[in.Rs1] >> (uint32(in.Imm) & 31)
		case isa.OpSlti:
			r[in.Rd] = boolReg(r[in.Rs1] < int32(in.Imm))
		case isa.OpLui:
			r[in.Rd] = int32(in.Imm) << 12
		case isa.OpLw:
			addr = r[in.Rs1] + int32(in.Imm)
			if addr < 0 || addr >= memWords {
				res.Trap = fmt.Errorf("%w: load address %d out of range at pc %d", ErrTrap, addr, pc)
				break run
			}
			res.CacheAccess++
			lat = hitLat
			if m.cacheAccess(addr) {
				res.CacheMisses++
				lat = missLat
			}
			var v int32
			if pg := m.pages[addr>>pageBits]; pg != nil {
				v = pg.words[addr&(pageWords-1)]
				if f := pg.fwd[addr&(pageWords-1)]; f != 0 {
					wait = f - 1
				}
			}
			r[in.Rd] = v
		case isa.OpSw:
			addr = r[in.Rs1] + int32(in.Imm)
			if addr < 0 || addr >= memWords {
				res.Trap = fmt.Errorf("%w: store address %d out of range at pc %d", ErrTrap, addr, pc)
				break run
			}
			res.CacheAccess++
			lat = hitLat
			if m.cacheAccess(addr) {
				res.CacheMisses++
				lat = missLat
			}
			pg := m.pages[addr>>pageBits]
			if pg == nil {
				pg = new(page)
				m.pages[addr>>pageBits] = pg
			}
			pg.words[addr&(pageWords-1)] = r[in.Rs2]
			slot = &pg.fwd[addr&(pageWords-1)]
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
			res.Branches++
			if mispredicted = !m.predictBranch(pc, taken); mispredicted {
				res.Mispredicts++
			}
			if taken {
				next = int(in.Imm)
			}
		case isa.OpJal:
			r[in.Rd] = int32(pc + 1)
			next = int(in.Imm)
		case isa.OpJalr:
			t := int(r[in.Rs1]) + int(in.Imm)
			r[in.Rd] = int32(pc + 1)
			next = t
		default:
			res.Trap = fmt.Errorf("%w: illegal opcode %v at pc %d", ErrTrap, in.Op, pc)
			break run
		}
		r[0] = 0
		pc = next
		res.ClassCounts[cls]++

		// Fetch bandwidth: fetchWidth instructions per cycle.
		fetchInGroup++
		if fetchInGroup >= fetchWidth {
			fetchInGroup = 0
			fetchCycle++
		}
		dispatch := fetchCycle
		// ROB window: cannot dispatch until the slot from robSize ago
		// retired, and fetch stalls along with dispatch backpressure.
		if old := m.retireRing[ringPos]; old > dispatch {
			dispatch = old
			fetchCycle = old
		}
		// Source readiness, including a load's wait on the store it reads.
		ready := max(dispatch, m.regReady[in.Rs1], m.regReady[in.Rs2], wait)

		// FU arbitration: the earliest-free unit of the class, the lowest
		// on a tie, from two compares, which cover maxUnits = 3. A class's
		// missing units are never free (newMachine).
		units := &m.fuFree[cls]
		best := 0
		if units[1] < units[0] {
			best = 1
		}
		if units[2] < units[best] {
			best = 2
		}
		issue := max(ready, units[best])
		units[best] = issue + occupancy
		complete := issue + lat
		m.regReady[in.Rd] = complete
		m.regReady[0] = 0
		if slot != nil {
			m.forward(slot, addr, complete)
		}

		// Branch resolution: mispredicts refill the frontend.
		if redirect := complete + mispredictPenalty; mispredicted && redirect > fetchCycle {
			fetchCycle = redirect
			fetchInGroup = 0
		}

		// In-order retire with commitWidth per cycle.
		retire := max(complete, retireAt)
		if retire == retireAt {
			retiredHere++
			if retiredHere >= commitWidth {
				retire++
				retiredHere = 0
			}
		} else {
			retiredHere = 1
		}
		retireAt = retire
		m.retireRing[ringPos] = retire
		ringPos++
		if ringPos == robSize {
			ringPos = 0
		}
	}
	res.Insts = n
	if !res.Halted && res.Trap == nil {
		res.TimedOut = true
	}

	res.Cycles = max(retireAt, 1)
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

// machine is the state one run carries between instructions beyond Run's
// locals.
type machine struct {
	regs  [32]int32
	pages [memWords / pageWords]*page

	// timing state
	regReady   [32]uint64
	fuFree     [numClasses][maxUnits]uint64 // free cycle of each unit
	retireRing [robSize]uint64              // retire cycles of the last robSize insts

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

// noUnit is the free cycle of a unit a class does not have, so the
// earliest-free choice among maxUnits never picks it.
const noUnit = ^uint64(0)

func newMachine() *machine {
	m := &machine{}
	m.regs[isa.RegSP] = memWords - 1
	m.regs[isa.RegGP] = 0
	for c := range m.fuFree {
		for u := unitCount[c]; u < maxUnits; u++ {
			m.fuFree[c][u] = noUnit
		}
	}
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

func boolReg(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// forward records a store's completion cycle in slot, the forwarding
// entry of the word at addr. The insert that takes the table past
// maxForward words clears every entry, the new one included.
func (m *machine) forward(slot *uint64, addr int32, complete uint64) {
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
