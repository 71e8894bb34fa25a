// Package vrank implements VRank-style self-consistency ranking (paper
// §II): generate k Verilog candidates, simulate each on oracle-free
// stimuli, cluster candidates by their output signatures, and pick a
// representative of the largest cluster. The intuition: correct programs
// agree with each other; each buggy program fails in its own way.
package vrank

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"llm4eda/internal/benchset"
	"llm4eda/internal/core"
	"llm4eda/internal/llm"
	"llm4eda/internal/simfarm"
	"llm4eda/internal/verilog"
)

// Options parameterize ranking.
type Options struct {
	// RunSpec carries the shared execution envelope; Workers bounds the
	// signature and oracle batch simulations.
	core.RunSpec
	Model llm.Model
	// K is the candidate count (default 5).
	K int
	// Temperature for sampling diversity (default 0.9).
	Temperature float64
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 5
	}
	if o.Temperature == 0 {
		o.Temperature = 0.9
	}
	return o
}

// Result reports one ranking run.
type Result struct {
	Sources []string
	// Signatures are the oracle-free output fingerprints per candidate
	// ("" for non-compiling candidates).
	Signatures []string
	// Clusters lists candidate indices grouped by identical signature,
	// largest first.
	Clusters [][]int
	// Chosen is the selected candidate index (-1 if nothing simulated).
	Chosen int
	// ChosenPasses / FirstPasses compare self-consistency selection with
	// the naive take-the-first-sample baseline on the real testbench.
	ChosenPasses bool
	FirstPasses  bool
	// AnyPasses reports whether an oracle could have found a passing
	// candidate among the k samples (the pass@k ceiling).
	AnyPasses bool
}

// benchTop is the top module name of every benchset testbench (they all
// declare `module tb;`). Simulation jobs and the benchFinals hierarchy
// filter key off the same constant so a future rename cannot silently
// stop benchFinals from matching anything.
const benchTop = "tb"

// StimulusBench rewrites a self-checking testbench into an oracle-free
// stimulus bench: every $check_eq(actual, expected) becomes a $display of
// both values. Because the expected value is a constant, it is identical
// across candidates and adds no oracle information to the signature.
func StimulusBench(tb string) string {
	sbMu.Lock()
	if sb, ok := sbCache[tb]; ok {
		sbMu.Unlock()
		return sb
	}
	sbMu.Unlock()
	sb := strings.ReplaceAll(tb, "$check_eq(", `$display("SIG %b %b", `)
	sbMu.Lock()
	if len(sbCache) < sbCacheCap {
		sbCache[tb] = sb
	}
	sbMu.Unlock()
	return sb
}

// sbCache memoizes testbench -> stimulus-bench rewrites: every batch of
// every ranking round re-derives the same handful of benches. The cap
// only exists so arbitrary caller-supplied benches cannot grow the memo
// without bound (every other cache in the repo is bounded too); the
// benchset suite fits with room to spare.
var (
	sbMu    sync.Mutex
	sbCache = map[string]string{}
)

const sbCacheCap = 128

// Signature simulates a candidate on the stimulus bench and returns its
// output fingerprint ("" when the candidate does not compile).
func Signature(p *benchset.Problem, source string) string {
	sigs, _ := Signatures(context.Background(), p, []string{source}, 1)
	return sigs[0]
}

// Fingerprint builds the clustering signature of one stimulus-bench run:
// the printed output, runtime/timeout markers, and the final values of
// the bench's own top-level signals. Including bench-level finals is the
// wide-output fidelity fix — capture state the bench never $displays
// (memories, >64-bit buses split into words, reported via
// SimResult.FinalMem) still distinguishes candidates that differ only
// there. Candidate-internal signals (hierarchy below the bench, whose
// names vary freely across LLM samples) are excluded so naming noise
// cannot split clusters.
func Fingerprint(res *verilog.SimResult) string {
	fs := benchFinals(res)
	var b strings.Builder
	b.Grow(len(res.Output) + len(fs) + 32)
	b.WriteString(res.Output)
	if res.RuntimeErr != nil {
		b.WriteString("\nRT:")
		b.WriteString(res.RuntimeErr.Error())
	}
	if res.TimedOut {
		b.WriteString("\nTIMEOUT")
	}
	if fs != "" {
		b.WriteString("\nFINAL:\n")
		b.WriteString(fs)
	}
	return b.String()
}

// benchFinals renders the final values of signals declared directly in
// the stimulus bench ("tb.<name>" with no deeper hierarchy), sorted.
func benchFinals(res *verilog.SimResult) string {
	return verilog.FormatSignalsFunc(res, func(n string) bool {
		rest, ok := strings.CutPrefix(n, benchTop+".")
		return ok && !strings.Contains(rest, ".")
	})
}

// Signatures fingerprints a whole candidate batch against the shared
// stimulus bench through the simfarm engine: the bench is compiled once,
// duplicate candidates are simulated once, and independent candidates run
// concurrently (workers <= 0 selects GOMAXPROCS). Output order matches
// the input and is bit-identical to calling Signature in a serial loop.
// A cancelled ctx aborts the batch within one job and returns ctx.Err().
func Signatures(ctx context.Context, p *benchset.Problem, sources []string, workers int) ([]string, error) {
	sb := StimulusBench(p.Testbench())
	jobs := make([]simfarm.Job, len(sources))
	for i, src := range sources {
		jobs[i] = simfarm.Job{DUT: src, TB: sb, Top: benchTop}
	}
	results, err := simfarm.RunManyCtx(ctx, jobs, workers)
	out := make([]string, len(sources))
	// Duplicate candidates share one cached *SimResult; render each
	// distinct result once instead of once per duplicate.
	rendered := make(map[*verilog.SimResult]string, len(results))
	for i, r := range results {
		if r.Err != nil {
			continue
		}
		fp, ok := rendered[r.Res]
		if !ok {
			fp = Fingerprint(r.Res)
			rendered[r.Res] = fp
		}
		out[i] = fp
	}
	return out, err
}

// Rank runs the full VRank flow on one problem. ctx is checked between
// model calls and cancels the signature/oracle batches within one
// simulation; sampled candidates and cluster picks stream to the
// context's event sink.
func Rank(ctx context.Context, p *benchset.Problem, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Model == nil {
		return nil, fmt.Errorf("vrank: Options.Model is required")
	}
	sink := core.SinkOf(ctx)
	res := &Result{Chosen: -1}

	sink.Emit(core.Event{Kind: core.EventPhaseStart, Framework: "vrank", Phase: "sampling", Total: opts.K, Detail: p.ID})
	for k := 0; k < opts.K; k++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		resp, err := opts.Model.Generate(llm.Request{
			System:      llm.SystemVerilogDesigner,
			Prompt:      llm.BuildDesignPrompt(p.Spec),
			Task:        llm.VerilogGen{ProblemID: p.ID, Spec: p.Spec, Reference: p.Reference, Difficulty: p.Difficulty},
			Temperature: opts.Temperature,
		})
		if err != nil {
			return nil, fmt.Errorf("vrank: generation failed: %w", err)
		}
		res.Sources = append(res.Sources, resp.Text)
		sink.Emit(core.Event{
			Kind: core.EventLLMCall, Framework: "vrank", Phase: "code generation",
			Seq: k + 1, Total: opts.K, TokensIn: resp.TokensIn, TokensOut: resp.TokensOut,
		})
	}
	sink.Emit(core.Event{Kind: core.EventPhaseEnd, Framework: "vrank", Phase: "sampling", Total: opts.K, OK: true, Detail: p.ID})

	// One stimulus-bench compile, k candidate signatures in parallel.
	var err error
	res.Signatures, err = Signatures(ctx, p, res.Sources, opts.Workers)
	if err != nil {
		return res, err
	}

	// Cluster by identical signature (compiling candidates only).
	bySig := map[string][]int{}
	for i, sig := range res.Signatures {
		if sig == "" {
			continue
		}
		bySig[sig] = append(bySig[sig], i)
	}
	sigs := make([]string, 0, len(bySig))
	for sig := range bySig {
		sigs = append(sigs, sig)
	}
	sort.Slice(sigs, func(i, j int) bool {
		a, b := bySig[sigs[i]], bySig[sigs[j]]
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		return a[0] < b[0] // deterministic tie-break: earliest candidate
	})
	for _, sig := range sigs {
		res.Clusters = append(res.Clusters, bySig[sig])
	}
	if len(res.Clusters) > 0 {
		res.Chosen = res.Clusters[0][0]
	}

	// Score every candidate against the real (oracle) testbench in one
	// batch: the bench compiles once and duplicate candidates simulate
	// once, where the serial path re-ran the chosen and first candidates
	// from scratch.
	tb := p.Testbench()
	oracleJobs := make([]simfarm.Job, len(res.Sources))
	for i, src := range res.Sources {
		oracleJobs[i] = simfarm.Job{DUT: src, TB: tb, Top: benchTop}
	}
	oracle, err := simfarm.RunManyCtx(ctx, oracleJobs, opts.Workers)
	if err != nil {
		return res, err
	}
	if res.Chosen >= 0 {
		res.ChosenPasses = oracle[res.Chosen].Passed()
	}
	if len(oracle) > 0 {
		res.FirstPasses = oracle[0].Passed()
	}
	for _, r := range oracle {
		if r.Passed() {
			res.AnyPasses = true
			break
		}
	}
	sink.Emit(core.Event{
		Kind: core.EventCandidate, Framework: "vrank", Phase: "selection",
		Seq: res.Chosen + 1, Total: len(res.Sources), OK: res.ChosenPasses,
		Detail: fmt.Sprintf("%d clusters; chosen candidate passes=%v", len(res.Clusters), res.ChosenPasses),
	})
	return res, nil
}
