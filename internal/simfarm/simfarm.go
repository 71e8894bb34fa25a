// Package simfarm is the compile-once/run-many simulation engine behind
// every candidate-scoring framework in the suite (AutoChip, VRank,
// crosscheck, the agent, HLS cosim, xdebug). It layers four mutex-guarded
// LRU caches over the verilog front end and one over the C front end,
// each keyed by the inputs it computes from —
//
//	parse:   source text                  -> parsed module list
//	design:  (top, DUT text, bench text)  -> elaborated CompiledDesign
//	result:  (design key, sim options)    -> SimResult
//	lint:    (DUT text, DUT top)          -> static-analysis outcome
//	cparse:  C source text                -> parsed C Program
//
// — plus a bounded worker pool (RunMany) that simulates independent
// candidates concurrently. A key compares its texts in full, so equal
// sources share one entry however the caller built them, and no digest
// stands in for them. Every layer probes through one singleflight
// lookup: concurrent misses on a key compute once, and a caller that
// joins a compute in flight counts a hit, so each layer's misses equal
// its computes. Every cached artifact is immutable and every simulation
// is deterministic in its seed, so cached and parallel batches are
// bit-identical to the serial, cache-cold path.
package simfarm

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"llm4eda/internal/chdl"
	"llm4eda/internal/core"
	"llm4eda/internal/faultinject"
	"llm4eda/internal/obs"
	"llm4eda/internal/verilog"
	"llm4eda/internal/vlint"
)

// Layer capacities, sized for the benchmark suites (hundreds of
// candidates × a handful of benches).
const (
	parseCap  = 512
	designCap = 512
	resultCap = 2048
	lintCap   = 512
	cparseCap = 256
)

// Farm owns the cache hierarchy. A single Farm is safe for concurrent use
// from any number of goroutines.
type Farm struct {
	// parses memoizes Verilog parses by source text; a bench reused by
	// every candidate is parsed once.
	parses  *lru[string, parseResult]
	designs *lru[designKey, designResult]
	results *lru[resultKey, simResult]
	// lints memoizes static-analysis outcomes of standalone DUTs
	// (keyed by DUT text + top), so screening the same candidate
	// against many benches lints it once. lintRejects counts jobs
	// rejected by screening — simulations the farm never had to run.
	lints       *lru[lintKey, lintOutcome]
	lintRejects atomic.Int64
	// cparses memoizes C parses (keyed by source text) for the callers
	// that only read and interpret the Program: the C reference models
	// of crosscheck, xdebug, hlstest and the repair flow.
	cparses *lru[string, cParseResult]

	// panics counts worker panics recovered in runJobCtx — each one a
	// simulation that would have killed the process before PR 9.
	panics atomic.Int64
	// faults is the chaos-test injector; nil (one atomic load) in
	// production.
	faults atomic.Pointer[faultinject.Injector]
}

// SetFaults installs (or, with nil, removes) a fault injector on the
// farm. Test-only in spirit: the injector fires at the farm.job hook
// point once per job, before any cache is consulted.
func (f *Farm) SetFaults(in *faultinject.Injector) {
	f.faults.Store(in)
}

// New builds an empty farm.
func New() *Farm {
	return &Farm{
		parses:  newLRU[string, parseResult](parseCap),
		designs: newLRU[designKey, designResult](designCap),
		results: newLRU[resultKey, simResult](resultCap),
		lints:   newLRU[lintKey, lintOutcome](lintCap),
		cparses: newLRU[string, cParseResult](cparseCap),
	}
}

var (
	defaultFarm     *Farm
	defaultFarmOnce sync.Once
)

// Default returns the process-wide farm shared by every framework package.
func Default() *Farm {
	defaultFarmOnce.Do(func() { defaultFarm = New() })
	return defaultFarm
}

// FarmStats reports per-layer cache traffic.
type FarmStats struct {
	Parses, Designs, Results Stats
	// Lints is the static-analysis memo's traffic; LintRejects counts
	// jobs rejected by pre-simulation screening (each one a VM compile +
	// simulation the farm did not spend).
	Lints       Stats
	LintRejects int64
	// CParses is the C parse memo's traffic.
	CParses Stats
	// Panics counts worker panics recovered into Result.Err instead of
	// crashing the process.
	Panics int64
}

// Stats snapshots the farm's counters. The snapshot is lock-free (each
// layer's counters are atomics held outside the cache lock), so Stats is
// safe and cheap to poll from any number of goroutines while RunMany is
// saturating the caches — the edaserver /v1/stats handler does exactly
// that. Counters are loaded individually, not as one consistent cut; the
// before/after deltas the CLI prints are taken at rest, where that
// distinction vanishes.
func (f *Farm) Stats() FarmStats {
	return FarmStats{
		Parses:      f.parses.snapshot(),
		Designs:     f.designs.snapshot(),
		Results:     f.results.snapshot(),
		Lints:       f.lints.snapshot(),
		LintRejects: f.lintRejects.Load(),
		CParses:     f.cparses.snapshot(),
		Panics:      f.panics.Load(),
	}
}

// LayerStats is one cache layer's counters under its metric label.
type LayerStats struct {
	Name string
	Stats
}

// Layers returns every cache layer's counters in one fixed order, so each
// surface that renders them (the CLI, /v1/metrics) lists the same layers
// under the same names.
func (s FarmStats) Layers() []LayerStats {
	return []LayerStats{
		{"parse", s.Parses}, {"design", s.Designs}, {"result", s.Results},
		{"lint", s.Lints}, {"cparse", s.CParses},
	}
}

// Purge empties every cache layer (counters are kept). Benchmarks use it
// to measure cache-cold behavior.
func (f *Farm) Purge() {
	f.parses.purge()
	f.designs.purge()
	f.results.purge()
	f.lints.purge()
	f.cparses.purge()
}

// Delta returns the per-layer traffic between an earlier snapshot and s.
func (s FarmStats) Delta(earlier FarmStats) FarmStats {
	return FarmStats{
		Parses:      s.Parses.delta(earlier.Parses),
		Designs:     s.Designs.delta(earlier.Designs),
		Results:     s.Results.delta(earlier.Results),
		Lints:       s.Lints.delta(earlier.Lints),
		LintRejects: s.LintRejects - earlier.LintRejects,
		CParses:     s.CParses.delta(earlier.CParses),
		Panics:      s.Panics - earlier.Panics,
	}
}

func (s Stats) delta(earlier Stats) Stats {
	return Stats{
		Hits:      s.Hits - earlier.Hits,
		Misses:    s.Misses - earlier.Misses,
		Evictions: s.Evictions - earlier.Evictions,
		Computes:  s.Computes - earlier.Computes,
		Len:       s.Len,
	}
}

// parseResult caches a parse outcome; parse errors are cached too, so a
// non-compiling candidate is diagnosed once no matter how many benches it
// is scored against.
type parseResult struct {
	file *verilog.SourceFile
	err  error
}

// designResult caches an elaboration outcome.
type designResult struct {
	cd  *verilog.CompiledDesign
	err error
}

// simResult caches one deterministic simulation outcome.
type simResult struct {
	res *verilog.SimResult
	err error
}

// parse returns the cached parse of src, parsing on miss.
func (f *Farm) parse(src string) (*verilog.SourceFile, error) {
	pr := f.parses.getOrCompute(src, func() parseResult {
		file, err := verilog.Parse(src)
		return parseResult{file: file, err: err}
	})
	return pr.file, pr.err
}

// cParseResult caches a C parse outcome; parse errors are cached too.
type cParseResult struct {
	prog *chdl.Program
	err  error
}

// ParseC returns the cached parse of a C source, parsing on miss. Every
// caller gets the same Program: read it and interpret it (concurrent
// interpreters share it safely), but never edit it. A caller that
// rewrites the tree parses privately with chdl.ParseC.
func (f *Farm) ParseC(src string) (*chdl.Program, error) {
	r := f.cparses.getOrCompute(src, func() cParseResult {
		prog, err := chdl.ParseC(src)
		return cParseResult{prog: prog, err: err}
	})
	return r.prog, r.err
}

// ParseC parses a C source through the default farm.
func ParseC(src string) (*chdl.Program, error) {
	return Default().ParseC(src)
}

// designKey identifies one elaboration: the bench's top module over the
// DUT and bench texts. The two texts stay separate fields, so where one
// ends and the other begins is part of the identity.
type designKey struct{ top, dut, tb string }

// resultKey identifies one deterministic run: the design plus every
// option that can change observable behavior, normalized so that
// zero-valued and explicitly-default options share one cache entry.
type resultKey struct {
	design designKey
	opts   verilog.SimOptions
}

// Compile returns the cached elaboration of the DUT and bench sources
// under top, parsing each through the parse cache and elaborating on
// miss; concurrent misses on one design elaborate once (singleflight).
func (f *Farm) Compile(top, dut, tb string) (*verilog.CompiledDesign, error) {
	dr := f.designs.getOrCompute(designKey{top, dut, tb}, func() designResult {
		dutFile, err := f.parse(dut)
		if err != nil {
			return designResult{err: err}
		}
		tbFile, err := f.parse(tb)
		if err != nil {
			return designResult{err: err}
		}
		cd, err := verilog.ElaborateParsed(top, verilog.MergeSources(dutFile, tbFile))
		return designResult{cd: cd, err: err}
	})
	return dr.cd, dr.err
}

// run simulates cd, the design Compile built for key, under the given
// options, returning the memoized result when this exact (design,
// options) pair has run before. The simulator is fully deterministic, so
// the cached result is bit-identical to a fresh run. Returned results are
// shared: callers must treat them as read-only.
func (f *Farm) run(key designKey, cd *verilog.CompiledDesign, opts verilog.SimOptions) (*verilog.SimResult, error) {
	sr := f.results.getOrCompute(resultKey{key, opts.Normalized()}, func() simResult {
		res, err := cd.Run(opts)
		return simResult{res: res, err: err}
	})
	return sr.res, sr.err
}

// lintKey identifies one standalone lint: the DUT text under its top.
type lintKey struct{ dut, top string }

// lintOutcome caches the static analysis of one standalone DUT.
type lintOutcome struct {
	diags []vlint.Diagnostic
	rej   *vlint.RejectError // non-nil when error-severity findings exist
	err   error              // parse or standalone-elaboration failure: not lintable
}

// lint returns the memoized static analysis of dutSrc elaborated
// standalone under dutTop. Parsing goes through the parse cache (shared
// with the later DUT+bench compile), but standalone elaboration is done
// directly rather than through the design cache: the DUT-alone design
// is never simulated, and keeping it out of the design layer keeps that
// layer's compute counters an honest measure of simulation work.
func (f *Farm) lint(dutSrc, dutTop string) lintOutcome {
	return f.lints.getOrCompute(lintKey{dutSrc, dutTop}, func() lintOutcome {
		file, err := f.parse(dutSrc)
		if err != nil {
			return lintOutcome{err: err}
		}
		d, err := verilog.Elaborate(file, dutTop)
		if err != nil {
			return lintOutcome{err: err}
		}
		out := lintOutcome{diags: vlint.Lint(file, d)}
		if errs := vlint.Errors(out.diags); len(errs) > 0 {
			out.rej = &vlint.RejectError{Top: dutTop, Diags: errs}
		}
		return out
	})
}

// Lint returns the full (warning + error) diagnostics of a standalone
// DUT, memoized by content. The error is the DUT's own parse or
// elaboration failure.
func (f *Farm) Lint(dutSrc, dutTop string) ([]vlint.Diagnostic, error) {
	out := f.lint(dutSrc, dutTop)
	return out.diags, out.err
}

// LintScreen decides whether screening rejects a DUT: non-nil (a
// *vlint.RejectError) exactly when the DUT compiles standalone and has
// error-severity findings. A DUT that fails to parse or elaborate is
// NOT rejected here — it falls through so the compile pipeline reports
// the same error text it always has. Screening is therefore sound:
// it only ever removes candidates that are structurally broken RTL,
// never changes what any surviving candidate's simulation reports.
func (f *Farm) LintScreen(dutSrc, dutTop string) error {
	if out := f.lint(dutSrc, dutTop); out.rej != nil {
		return out.rej
	}
	return nil
}

// RunTestbench is the cached equivalent of verilog.RunTestbench: compile
// DUT+bench once, then memoize the run itself.
func (f *Farm) RunTestbench(dutSrc, tbSrc, tbTop string, opts verilog.SimOptions) (*verilog.SimResult, error) {
	cd, err := f.Compile(tbTop, dutSrc, tbSrc)
	if err != nil {
		return nil, err
	}
	return f.run(designKey{tbTop, dutSrc, tbSrc}, cd, opts)
}

// Job is one independent simulation: a candidate DUT paired with a bench.
type Job struct {
	DUT, TB string
	// Top is the bench's top module.
	Top string
	// DUTTop is the candidate's own top module; required for Lint.
	DUTTop string
	// Lint opts the job into pre-simulation screening: a DUT that
	// compiles standalone and carries error-severity lint findings is
	// rejected (Result.Err is a *vlint.RejectError) without spending a
	// VM compile or simulation on the DUT+bench pair.
	Lint bool
	// Opts bound the run; Opts.Seed makes the job's $random stream
	// deterministic regardless of scheduling.
	Opts verilog.SimOptions
}

// Result is the outcome of one Job. Err carries front-end (parse or
// elaboration) failures; simulation-level defects land inside Res exactly
// as in the serial path.
type Result struct {
	Res *verilog.SimResult
	Err error
}

// Passed reports whether the job compiled and its run passed.
func (r Result) Passed() bool {
	return r.Err == nil && r.Res != nil && r.Res.Passed()
}

// RunMany simulates independent jobs on a bounded worker pool and returns
// results in job order. workers <= 0 selects GOMAXPROCS. Each job has its
// own Simulator and its own seed, so the output slice is bit-identical to
// running the same jobs serially in a loop — scheduling affects only
// wall-clock time. Shared substructure (a bench reused across candidates,
// duplicate candidate sources) is served from the farm's caches, and
// duplicates that land on workers in the same scheduling window join one
// in-flight compute, so the farm's counters are the same for every
// schedule.
func (f *Farm) RunMany(jobs []Job, workers int) []Result {
	results, _ := f.RunManyCtx(context.Background(), jobs, workers)
	return results
}

// RunManyCtx is RunMany under a context: when ctx is cancelled mid-batch,
// dispatch stops, in-flight jobs finish, every job that never started is
// marked with ctx.Err(), and the call returns ctx.Err() promptly (within
// one job's runtime). Completed slots are identical to the uncancelled
// run.
func (f *Farm) RunManyCtx(ctx context.Context, jobs []Job, workers int) ([]Result, error) {
	results := make([]Result, len(jobs))
	started := make([]bool, len(jobs))
	err := MapCtx(ctx, len(jobs), workers, func(i int) {
		started[i] = true
		results[i] = f.runJobCtx(ctx, jobs[i])
	})
	if err != nil {
		for i := range results {
			if !started[i] {
				results[i] = Result{Err: err}
			}
		}
	}
	return results, err
}

// runJobCtx executes one job: fault hook first (before any cache, so
// every call counts under a plan), then lint screen (when opted in),
// then the cached compile+run path. A panic anywhere below — the
// kernel, the VM, an injected fault — is recovered into a
// *core.PanicError result so one bad candidate costs one job, not the
// process. Nothing a panicking compute produced is cached: the
// singleflight layers unwind panics without storing an entry.
func (f *Farm) runJobCtx(ctx context.Context, job Job) (out Result) {
	defer func() {
		if r := recover(); r != nil {
			f.panics.Add(1)
			out = Result{Err: &core.PanicError{Val: r, Stack: debug.Stack()}}
		}
	}()
	if in := f.faults.Load(); in != nil {
		if err := in.Fire(ctx, faultinject.PointFarmJob); err != nil {
			return Result{Err: err}
		}
	}
	// The span recorder rides the job context (nil when the caller does
	// not trace); each stage below records into the canonical phase even
	// when the cache answers it — a 2µs cached compile is still compile
	// time, and the breakdown is how cache wins become visible per job.
	sp := obs.SpansOf(ctx)
	if job.Lint && job.DUTTop != "" {
		start := time.Now()
		rej := f.LintScreen(job.DUT, job.DUTTop)
		if sp != nil {
			sp.Since(obs.PhaseLintScreen, start)
		}
		if rej != nil {
			f.lintRejects.Add(1)
			return Result{Err: rej}
		}
	}
	start := time.Now()
	cd, err := f.Compile(job.Top, job.DUT, job.TB)
	if sp != nil {
		sp.Since(obs.PhaseCompile, start)
	}
	if err != nil {
		return Result{Err: err}
	}
	start = time.Now()
	res, err := f.run(designKey{job.Top, job.DUT, job.TB}, cd, job.Opts)
	if sp != nil {
		sp.Since(obs.PhaseSim, start)
	}
	return Result{Res: res, Err: err}
}

// RunManyCtx runs a cancellable batch through the default farm.
func RunManyCtx(ctx context.Context, jobs []Job, workers int) ([]Result, error) {
	return Default().RunManyCtx(ctx, jobs, workers)
}

// MapCtx runs fn(i) for every i in [0, n) on up to workers goroutines
// (GOMAXPROCS when workers <= 0) and returns when all calls finish. It is
// the generic batch-evaluation primitive for non-Verilog scoring loops
// (the SLT and GP population evaluations): fn writes its result into a
// caller-owned slot at index i, so output order is deterministic.
//
// Cancellation stops new dispatch immediately: indices already handed to
// a worker run to completion (fn is never interrupted mid-call), no
// further fn calls start, every worker goroutine exits, and MapCtx
// returns ctx.Err(). With an uncancelled context the call visits every
// index and returns nil.
//
// A panicking fn does not kill the pool: the panic is recovered per
// call, remaining indices still run, and MapCtx returns the first
// panic (as a *core.PanicError) when the context was never cancelled.
// This is the backstop for generic scoring fns (SLT, GP); the farm's
// own jobs recover one level deeper in runJobCtx, per slot.
func MapCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if err := ctx.Err(); err != nil {
		return err // dead on arrival: no worker starts, no fn runs
	}
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var panicErr atomic.Pointer[core.PanicError]
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicErr.CompareAndSwap(nil, &core.PanicError{Val: r, Stack: debug.Stack()})
			}
		}()
		fn(i)
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			call(i)
		}
		if pe := panicErr.Load(); pe != nil {
			return pe
		}
		return nil
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				call(i)
			}
		}()
	}
	var err error
dispatch:
	for i := 0; i < n; i++ {
		// Check first so a cancelled context never wins the select race
		// against a ready worker.
		if err = ctx.Err(); err != nil {
			break dispatch
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if err == nil {
		if pe := panicErr.Load(); pe != nil {
			err = pe
		}
	}
	return err
}
