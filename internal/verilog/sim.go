package verilog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// SimOptions bound a simulation run. Zero values select defaults; the
// bounds exist so that broken LLM-generated candidates (combinational
// loops, missing $finish, runaway always blocks) terminate cleanly and
// report a diagnosable failure instead of hanging the harness.
type SimOptions struct {
	// MaxTime is the time-unit horizon (default 1_000_000).
	MaxTime uint64
	// MaxSteps bounds executed behavioral statements (default 4_000_000).
	MaxSteps uint64
	// MaxDeltas bounds delta cycles within one timestep (default 10_000).
	MaxDeltas int
	// Seed seeds $random.
	Seed uint64
}

// Normalized returns the options with every zero value replaced by its
// default — the form NewSimulator actually runs under. Cache layers key
// results on this so that zero-valued and explicitly-default options
// share one identity.
func (o SimOptions) Normalized() SimOptions { return o.withDefaults() }

func (o SimOptions) withDefaults() SimOptions {
	if o.MaxTime == 0 {
		o.MaxTime = 1_000_000
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 4_000_000
	}
	if o.MaxDeltas == 0 {
		o.MaxDeltas = 10_000
	}
	return o
}

// SimResult is the outcome of a simulation run.
type SimResult struct {
	// Output is everything printed by $display/$write.
	Output string
	// Checks and Failures count $check/$check_eq/$error outcomes.
	Checks   int
	Failures int
	// Finished is true when $finish was executed.
	Finished bool
	// TimedOut is true when MaxTime or MaxSteps was exhausted first.
	TimedOut bool
	// RuntimeErr carries a fatal runtime diagnostic (nil if clean).
	RuntimeErr error
	// EndTime is the simulation time when the run stopped. When the run
	// hit the MaxTime horizon, this is the horizon itself, not the last
	// timestep that completed before it.
	EndTime uint64
	// Final holds the last value of every single-word signal by name —
	// scalars and vectors up to 64 bits.
	Final map[string]Value
	// FinalMem holds the last contents of every multi-word signal
	// (memories, and wide buses stored as word arrays) rendered as a
	// stable MSW-first hex string; see FormatWords. Keyed by name like
	// Final, so FormatSignals covers wide state too.
	FinalMem map[string]string
}

// Passed reports whether the run finished with all checks passing and at
// least one check executed.
func (r *SimResult) Passed() bool {
	return r.RuntimeErr == nil && r.Checks > 0 && r.Failures == 0
}

// simOutput accumulates $display output on a pooled byte buffer: the
// backing array is recycled across simulations (outBufPool), so a batch
// of thousands of runs allocates output storage once per worker instead
// of growth-doubling a fresh strings.Builder per run. take() makes the
// one exact-size string copy the result keeps.
type simOutput struct {
	b []byte
}

// outBufPool recycles simulation output buffers.
var outBufPool = sync.Pool{New: func() any { return make([]byte, 0, 4096) }}

// valSlabPool recycles the per-run Value slab (signal store plus both
// register regions). Value contains no pointers, so pooled slabs cost
// the garbage collector nothing to retain.
var valSlabPool = sync.Pool{New: func() any { return []Value(nil) }}

func getValSlab(n int) []Value {
	s := valSlabPool.Get().([]Value)
	if cap(s) < n {
		return make([]Value, n)
	}
	return s[:n]
}

// boolSlabPool recycles the per-run caBusy slab.
var boolSlabPool = sync.Pool{New: func() any { return []bool(nil) }}

func getBoolSlab(n int) []bool {
	s := boolSlabPool.Get().([]bool)
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

func (o *simOutput) Len() int { return len(o.b) }

func (o *simOutput) Write(p []byte) (int, error) {
	o.b = append(o.b, p...)
	return len(p), nil
}

func (o *simOutput) WriteByte(c byte) error {
	o.b = append(o.b, c)
	return nil
}

// take returns the accumulated output as a string and returns the
// buffer to the pool; the simulator is single-use, so no writes follow.
func (o *simOutput) take() string {
	s := string(o.b)
	outBufPool.Put(o.b[:0])
	o.b = nil
	return s
}

// errFinish unwinds statement execution after $finish.
var errFinish = errors.New("verilog: finish requested")

// errBudget unwinds statement execution when MaxSteps is exhausted.
var errBudget = errors.New("verilog: statement budget exhausted")

// watchEntry is a process's reusable sensitivity-wait registration. The
// generation counter increments each time the process arms a new wait,
// so references left behind in watcher lists by earlier waits are
// recognized as stale and dropped lazily — arming a wait never allocates.
type watchEntry struct {
	r     *runner
	sens  []resolvedSens
	gen   uint64
	fired bool
}

// watchRef is one appearance of a watchEntry in a signal's watcher list,
// pinned to the arm generation that appended it.
type watchRef struct {
	w   *watchEntry
	gen uint64
}

// nbaUpdate is a deferred non-blocking assignment.
type nbaUpdate struct {
	sig   SignalID
	word  int
	mask  uint64
	value Value // pre-shifted into position described by mask
	// line is the scheduling statement's source line, carried to the NBA
	// drain so probe attribution survives the deferred commit.
	line int32
}

// timedEvent is one scheduled process resume on the event heap. seq is a
// monotonic tiebreak so that resumes scheduled for the same timestep run
// in scheduling order — the FIFO the seed kernel's per-time slices had.
type timedEvent struct {
	t   uint64
	seq uint64
	r   *runner
}

// eventHeap is a binary min-heap over (t, seq). It replaces the seed
// kernel's map[time][]process timeline, whose next-time lookup was a full
// O(n) key scan per timestep; push and pop are O(log n).
type eventHeap []timedEvent

func (h eventHeap) less(i, j int) bool {
	return h[i].t < h[j].t || (h[i].t == h[j].t && h[i].seq < h[j].seq)
}

func (h *eventHeap) push(e timedEvent) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() timedEvent {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = timedEvent{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h).less(l, small) {
			small = l
		}
		if r < n && (*h).less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// Simulator executes an elaborated design. A Simulator is single-use.
// The kernel is single-threaded and coroutine-free: behavioral processes
// are resumable interpreters (see runner in interp.go) dispatched by the
// event loop below, so a simulation spawns no goroutines at all.
type Simulator struct {
	design *Design
	opts   SimOptions

	store []Value // all signal words, one allocation (design.wordOffset)

	// caRegs/procRegs are the register regions for continuous-assign and
	// process programs: every program owns a disjoint region
	// (design.caRegOff/procRegOff), so wide multi-word operations run
	// entirely on preallocated scratch — no VM op allocates, and a
	// store's change wave re-entering another assign's program cannot
	// clobber live registers. Together with store they live on one
	// pooled slab (valSlab) recycled across simulations.
	caRegs   []Value
	procRegs []Value
	valSlab  []Value
	// caBusy guards each compiled assign's register region against
	// same-assign re-entry (see evalContAssign). It lives on a pooled
	// bool slab.
	caBusy []bool

	watchers [][]watchRef // event-waiting processes, indexed by SignalID
	// watchSweep is the per-signal list length that triggers a stale-ref
	// compaction at arm time. wakeWatchers prunes lazily, but only when a
	// signal changes — without the arm-time sweep, re-arming against a
	// never-changing signal (a held reset in @(posedge clk or negedge
	// rst_n)) grows its list by one ref per wait, without bound.
	watchSweep []int32

	active     []*runner // ready queue for the current delta
	activeHead int
	nba        []nbaUpdate
	eq         eventHeap // future process resumes, ordered by (time, seq)
	eqSeq      uint64

	changed     []changeRec // signal transitions awaiting propagation
	changedHead int
	flushing    bool

	now      uint64
	steps    uint64
	rngState uint64

	out      simOutput
	checks   int
	failures int
	finished bool
	timedOut bool
	rtErr    error

	// probe, when non-nil, observes every committed store (probe.go);
	// probeLine is the 1-based source line of the statement currently
	// committing, maintained by the store dispatch sites so commitWrite/
	// commitFull can attribute the transition without a signature change.
	probe     ProbeFunc
	probeLine int32
}

// NewSimulator prepares a simulator for one run over the design.
func NewSimulator(d *Design, opts SimOptions) *Simulator {
	opts = opts.withDefaults()
	// One pooled slab backs all Value state. The store region is fully
	// initialized to X below; the register regions are written before
	// they are read by construction of the lowering (expression stack
	// discipline), so recycled contents are never observable.
	slab := getValSlab(d.totalWords + d.caRegTotal + d.procRegTotal)
	s := &Simulator{
		design:     d,
		opts:       opts,
		valSlab:    slab,
		store:      slab[:d.totalWords],
		caRegs:     slab[d.totalWords : d.totalWords+d.caRegTotal],
		procRegs:   slab[d.totalWords+d.caRegTotal:],
		caBusy:     getBoolSlab(len(d.assigns)),
		watchers:   make([][]watchRef, len(d.Signals)),
		watchSweep: make([]int32, len(d.Signals)),
		rngState:   opts.Seed*2862933555777941757 + 3037000493,
	}
	for i := range s.watchSweep {
		s.watchSweep[i] = watcherSweepMin
	}
	s.out.b = outBufPool.Get().([]byte)[:0] // recycled across simulations
	for _, sig := range d.Signals {
		off := int(d.wordOffset[sig.ID])
		ax := AllX(sig.Width)
		for i := 0; i < sig.Words; i++ {
			s.store[off+i] = ax
		}
	}
	return s
}

// Run executes the simulation to completion and returns the result. The
// returned error reports harness-level misuse only; candidate defects
// (runtime errors, timeouts, failed checks) land in the result.
func (s *Simulator) Run() (*SimResult, error) {
	// Evaluate every continuous assignment once at t=0.
	for i := range s.design.assigns {
		s.evalContAssign(i)
	}

	// Every process starts active at t=0, in declaration order. One slab
	// holds all runners and the pooled valSlab holds every register
	// file: per-run setup is two allocations, and no VM op allocates
	// later.
	runners := make([]runner, len(s.design.procs))
	s.active = make([]*runner, 0, 2*len(runners))
	for i, pr := range s.design.procs {
		r := &runners[i]
		r.sim, r.proc, r.scope = s, pr, pr.scope
		r.ev = evaluator{sim: s, scope: pr.scope}
		r.prog = pr.prog
		r.regs = s.procRegs[s.design.procRegOff[i]:s.design.procRegOff[i+1]]
		r.watch.r = r
		s.active = append(s.active, r)
	}

	s.mainLoop()

	res := &SimResult{
		Output:     s.out.take(),
		Checks:     s.checks,
		Failures:   s.failures,
		Finished:   s.finished,
		TimedOut:   s.timedOut,
		RuntimeErr: s.rtErr,
		EndTime:    s.now,
		Final:      make(map[string]Value, len(s.design.Signals)),
		FinalMem:   map[string]string{},
	}
	for _, sig := range s.design.Signals {
		if sig.Words == 1 {
			res.Final[sig.Name] = s.val(sig.ID)
		} else {
			res.FinalMem[sig.Name] = FormatWords(s.words(sig.ID), sig.Width)
		}
	}
	// The result holds copies of everything it needs; recycle the Value
	// slab. The Simulator is documented single-use — drop the views so a
	// misuse fails loudly instead of corrupting a later run's state.
	valSlabPool.Put(s.valSlab)
	boolSlabPool.Put(s.caBusy)
	s.valSlab, s.store, s.caRegs, s.procRegs, s.caBusy = nil, nil, nil, nil, nil
	return res, nil
}

// mainLoop drives the event regions until quiescence or a stop condition.
func (s *Simulator) mainLoop() {
	for {
		// Active region: resume ready processes to their next suspension.
		for s.activeHead < len(s.active) {
			if s.stopRequested() {
				return
			}
			r := s.active[s.activeHead]
			s.activeHead++
			if r.done {
				continue
			}
			s.dispatch(r)
			if s.stopRequested() {
				return
			}
		}
		s.active = s.active[:0]
		s.activeHead = 0
		// NBA region.
		if len(s.nba) > 0 {
			// commitWrite never re-enters the NBA queue (continuous
			// assigns commit blocking), so in-place iteration is safe.
			for i := range s.nba {
				u := s.nba[i]
				if s.probe != nil {
					s.probeLine = u.line
				}
				s.commitWrite(u.sig, u.word, u.mask, u.value)
			}
			s.nba = s.nba[:0]
			continue
		}
		// Advance time to the earliest scheduled resume.
		if len(s.eq) == 0 {
			return // quiescent: no more events
		}
		next := s.eq[0].t
		if next > s.opts.MaxTime {
			// The horizon fired: report the bound itself as the end time,
			// not the last timestep that happened to complete before it.
			s.timedOut = true
			s.now = s.opts.MaxTime
			return
		}
		s.now = next
		for len(s.eq) > 0 && s.eq[0].t == next {
			s.active = append(s.active, s.eq.pop().r)
		}
	}
}

func (s *Simulator) stopRequested() bool {
	return s.finished || s.rtErr != nil || s.timedOut
}

// val reads the (single-word) current value of a signal.
func (s *Simulator) val(sig SignalID) Value {
	return s.store[s.design.wordOffset[sig]]
}

// words returns the word array of a signal as a view into the store.
func (s *Simulator) words(sig SignalID) []Value {
	off := s.design.wordOffset[sig]
	return s.store[off:s.design.wordOffset[sig+1]]
}

// schedule queues a process resume at absolute time t.
func (s *Simulator) schedule(r *runner, t uint64) {
	s.eqSeq++
	s.eq.push(timedEvent{t: t, seq: s.eqSeq, r: r})
}

// dispatch resumes a process and records its outcome.
func (s *Simulator) dispatch(r *runner) {
	status, err := r.resume()
	switch status {
	case procSuspended:
		// The runner armed its own wake condition (heap entry or
		// watcher registrations); nothing to do here.
	case procEnded:
		r.done = true
	case procFinished:
		r.done = true
		s.finished = true
	case procErrored:
		r.done = true
		if errors.Is(err, errBudget) {
			s.timedOut = true
		} else if s.rtErr == nil {
			s.rtErr = err
		}
	}
}

// --- signal storage and propagation ------------------------------------

// trit classifies a bit for edge detection: 0, 1, or unknown.
func trit(v Value) int {
	switch {
	case v.Unknown&1 == 1:
		return 2
	case v.Bits&1 == 1:
		return 1
	default:
		return 0
	}
}

// edgeMatches reports whether a transition satisfies an edge spec.
func edgeMatches(edge EdgeKind, oldV, newV Value) bool {
	switch edge {
	case EdgePos:
		o, n := trit(oldV), trit(newV)
		return (o == 0 && n != 0) || (o == 2 && n == 1)
	case EdgeNeg:
		o, n := trit(oldV), trit(newV)
		return (o == 1 && n != 1) || (o == 2 && n == 0)
	default:
		return !oldV.Equal(newV)
	}
}

// changeRec is one observed signal transition awaiting propagation.
type changeRec struct {
	sig  SignalID
	oldV Value
	newV Value
}

// commitWrite applies a masked write to a signal word and, unless a
// propagation wave is already running, drains the resulting change queue:
// waking matching event waiters and re-evaluating dependent continuous
// assignments. Propagation is iterative and bounded by MaxDeltas so that
// combinational loops become diagnostics instead of stack overflows.
func (s *Simulator) commitWrite(sig SignalID, word int, mask uint64, v Value) {
	off := s.design.wordOffset[sig]
	// Compare in the int domain: a huge index (e.g. mem[i-1] with i==0,
	// which wraps to 0xFFFFFFFF) must not be truncated back into range.
	if word < 0 || word >= int(s.design.wordOffset[sig+1]-off) {
		return // out-of-range memory write: ignored like real simulators
	}
	slot := &s.store[int(off)+word]
	old := *slot
	nw := Value{
		Bits:    (old.Bits &^ mask) | (v.Bits & mask),
		Unknown: (old.Unknown &^ mask) | (v.Unknown & mask),
		Width:   old.Width,
	}
	if old.Unknown|nw.Unknown == 0 {
		// Two-state fast path: no X anywhere, equality is bit equality.
		if nw.Bits == old.Bits {
			return
		}
	} else if nw.Equal(old) {
		return
	}
	*slot = nw
	if s.probe != nil {
		s.probe(s.now, sig, word, s.probeLine, nw)
	}
	if word != 0 {
		return // memory word writes have no sensitivity in the subset
	}
	if len(s.design.sigAssigns[sig]) == 0 && len(s.watchers[sig]) == 0 {
		// Unobservable transition: no continuous assign reads the signal
		// and no process is waiting on it, so queueing it would only make
		// the flush loop below skip over it. Watcher registrations cannot
		// appear between here and the drain (processes never arm waits
		// mid-write), so the skip is exact.
		return
	}
	s.changed = append(s.changed, changeRec{sig: sig, oldV: old, newV: nw})
	if s.flushing {
		return // the outer flush loop will pick this up
	}
	s.flush()
}

// commitFull is commitWrite specialized for the pervasive case: a full-
// width store to word 0 of a signal whose store offset is already known
// (off == design.wordOffset[sig]). Every blocking non-indexed signal
// store (opStoreSig) lands here, skipping the bounds check and the
// masked merge. v must already be resized to the signal width (so
// v.Width == old.Width and v is masked).
func (s *Simulator) commitFull(sig SignalID, off int32, v Value) {
	slot := &s.store[off]
	old := *slot
	if old.Unknown|v.Unknown == 0 {
		if v.Bits == old.Bits {
			return
		}
	} else if v.Equal(old) {
		return
	}
	*slot = v
	if s.probe != nil {
		s.probe(s.now, sig, 0, s.probeLine, v)
	}
	if len(s.design.sigAssigns[sig]) == 0 && len(s.watchers[sig]) == 0 {
		return
	}
	s.changed = append(s.changed, changeRec{sig: sig, oldV: old, newV: v})
	if s.flushing {
		return
	}
	s.flush()
}

// flush drains the change queue: waking matching event waiters and
// re-evaluating dependent continuous assignments, in exact wave order.
func (s *Simulator) flush() {
	s.flushing = true
	deltas := 0
	for s.changedHead < len(s.changed) {
		c := s.changed[s.changedHead]
		s.changedHead++
		s.wakeWatchers(c)
		for _, idx := range s.design.sigAssigns[c.sig] {
			deltas++
			if deltas > s.opts.MaxDeltas {
				if s.rtErr == nil {
					s.rtErr = fmt.Errorf("verilog: combinational loop detected near line %d (delta limit %d)",
						s.design.assigns[idx].line, s.opts.MaxDeltas)
				}
				s.changed = s.changed[:0]
				s.changedHead = 0
				s.flushing = false
				return
			}
			s.evalContAssign(int(idx)) // may append to s.changed
		}
	}
	s.changed = s.changed[:0]
	s.changedHead = 0
	s.flushing = false
}

// wakeWatchers moves event-waiting processes whose edge matches onto the
// active queue. Stale references (an older arm generation, an already
// fired wait, a finished process) are dropped lazily here.
func (s *Simulator) wakeWatchers(c changeRec) {
	entries := s.watchers[c.sig]
	if len(entries) == 0 {
		return
	}
	kept := entries[:0]
	for _, ref := range entries {
		w := ref.w
		if ref.gen != w.gen || w.fired || w.r.done {
			continue
		}
		match := false
		for _, it := range w.sens {
			if it.sig == c.sig && edgeMatches(it.edge, c.oldV, c.newV) {
				match = true
				break
			}
		}
		if match {
			w.fired = true
			s.active = append(s.active, w.r)
			continue
		}
		kept = append(kept, ref)
	}
	s.watchers[c.sig] = kept
}

// evalContAssign recomputes one continuous assignment and writes its
// LHS. Compiled assigns run their evaluate-and-store program through
// vmRun on the pooled scratch slab; the one uncompiled lvalue shape
// (a concat with dynamically-sized parts) keeps the tree evaluator
// (identical semantics, just slower).
func (s *Simulator) evalContAssign(idx int) {
	ca := s.design.assigns[idx]
	if s.probe != nil {
		// Attribute every commit of this evaluation — compiled program
		// and tree fallback alike — to the assign's source line. (Store
		// opcodes re-set the line, to the same value, from their own
		// debug info.)
		s.probeLine = int32(ca.line)
	}
	if prog := ca.prog; prog != nil {
		regs := s.caRegs[s.design.caRegOff[idx]:s.design.caRegOff[idx+1]]
		nested := s.caBusy[idx]
		if nested {
			// Re-entered while mid-program: a multi-store assign whose
			// own first store's propagation wave (only possible outside a
			// flush, i.e. the t=0 evaluation) re-evaluates the same
			// assign. The outer frame's registers are still live, so the
			// nested run gets fresh ones — the per-entry locals the tree
			// kernel had, preserved exactly.
			regs = make([]Value, prog.numRegs)
		} else {
			s.caBusy[idx] = true
		}
		ev := evaluator{sim: s, scope: ca.scope}
		_, err := vmRun(s, prog, regs, nil, &ev, 0)
		if !nested {
			s.caBusy[idx] = false
		}
		if err != nil {
			if s.rtErr == nil {
				s.rtErr = fmt.Errorf("continuous assign at line %d: %w", ca.line, err)
			}
		}
		return
	}
	ev := &evaluator{sim: s, scope: ca.scope}
	rhs, err := ev.eval(ca.rhs)
	if err != nil {
		if s.rtErr == nil {
			s.rtErr = fmt.Errorf("continuous assign at line %d: %w", ca.line, err)
		}
		return
	}
	if err := ev.writeLValue(ca.lhs, rhs, false, nil); err != nil {
		if s.rtErr == nil {
			s.rtErr = fmt.Errorf("continuous assign at line %d: %w", ca.line, err)
		}
	}
}

// random returns the next $random value (xorshift64*).
func (s *Simulator) random() uint64 {
	s.rngState ^= s.rngState >> 12
	s.rngState ^= s.rngState << 25
	s.rngState ^= s.rngState >> 27
	return s.rngState * 2685821657736338717
}

// --- convenience entry points ------------------------------------------

// CompileAndRun parses, elaborates and simulates src with the given top
// module. Parse and elaboration failures come back as errors; everything
// later is reported inside the SimResult.
func CompileAndRun(src, top string, opts SimOptions) (*SimResult, error) {
	cd, err := Compile(src, top)
	if err != nil {
		return nil, err
	}
	return cd.Run(opts)
}

// RunTestbench pairs a DUT source with a testbench source, compiles them
// under the testbench top and simulates it. It compiles on every call;
// simfarm.RunTestbench is the cached equivalent the frameworks score
// candidates through. Its diagnostics are phrased the way an EDA tool
// would phrase them.
func RunTestbench(dutSrc, tbSrc, tbTop string, opts SimOptions) (*SimResult, error) {
	cd, err := CompileSources(tbTop, dutSrc, tbSrc)
	if err != nil {
		return nil, err
	}
	return cd.Run(opts)
}

// FormatSignals renders a stable listing of final signal values whose
// names match the given prefix; used by self-consistency clustering.
// Single-word signals render in binary-literal style, multi-word signals
// (memories, wide buses) as their FormatWords hex string, so candidates
// that differ only in wide state still get distinct listings.
func FormatSignals(res *SimResult, prefix string) string {
	return FormatSignalsFunc(res, func(n string) bool {
		return strings.HasPrefix(n, prefix)
	})
}

// FormatSignalsFunc is FormatSignals with an arbitrary name filter, for
// callers whose selection is not a plain prefix (e.g. vrank keeps only
// bench-level names). Rendering is identical, so derived fingerprints
// stay in sync with the human-readable listings.
func FormatSignalsFunc(res *SimResult, keep func(name string) bool) string {
	type entry struct {
		name string
		v    Value
		mem  string
	}
	entries := make([]entry, 0, len(res.Final)+len(res.FinalMem))
	total := 0
	for n, v := range res.Final {
		if keep(n) {
			entries = append(entries, entry{name: n, v: v})
			total += len(n) + v.Width + 8
		}
	}
	for n, m := range res.FinalMem {
		if keep(n) {
			entries = append(entries, entry{name: n, mem: m})
			total += len(n) + len(m) + 2
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	var b strings.Builder
	b.Grow(total)
	var scratch []byte
	for i := range entries {
		e := &entries[i]
		b.WriteString(e.name)
		b.WriteByte('=')
		if e.mem != "" {
			b.WriteString(e.mem)
		} else {
			scratch = e.v.appendString(scratch[:0])
			b.Write(scratch)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
