package llm4eda

// Micro-benchmarks of the layers under the paper artifacts: the
// compile-once/run-many engine, the simulator kernel, the compiler and
// VM dispatch, the lint screen, the §V scoring pool and the telemetry
// off-path. Run them with `go test -run '^$' -bench . .`. End-to-end
// numbers come from perfbench/ (`bash perfbench/run.sh`); the E1–E12
// rows come from `llm4eda exp` and are pinned by `make golden`.

import (
	"context"
	"testing"

	"llm4eda/internal/benchset"
	"llm4eda/internal/boom"
	"llm4eda/internal/llm"
	"llm4eda/internal/obs"
	"llm4eda/internal/simfarm"
	"llm4eda/internal/slt"
	"llm4eda/internal/verilog"
	"llm4eda/internal/vlint"
	"llm4eda/internal/vrank"
)

// --- compile-once/run-many engine benchmarks ---------------------------
//
// The pair below measures the tentpole refactor on a VRank-style workload:
// k candidates per problem scored twice (oracle-free signature bench, then
// the real oracle bench), exactly the simulation profile of vrank.Rank.
// Serial is the seed path — every score re-parses and re-elaborates the
// full candidate+bench source. Batch is the simfarm path — one bench
// compile per problem, duplicate candidates deduplicated, repeated oracle
// runs memoized. See EXPERIMENTS.md for recorded numbers.

// vrankWorkload generates the candidate sets once; both benchmarks score
// the identical workload. Mirroring the E9 evaluation, each problem is
// ranked over several sampling seeds — candidate sets overlap across
// seeds exactly as repeated LLM sampling overlaps in practice.
func vrankWorkload() (problems []*benchset.Problem, cands [][][]string) {
	ids := []string{"alu8", "mux4", "enc8to3", "barrel8", "satadd8", "popcount8"}
	for _, id := range ids {
		p := benchset.ByID(id)
		perSeed := make([][]string, 0, 3)
		for s := 0; s < 3; s++ {
			model := llm.NewSimModel(llm.TierMedium, uint64(s)*31+1)
			var srcs []string
			for k := 0; k < 7; k++ {
				resp, err := model.Generate(llm.Request{
					System:      llm.SystemVerilogDesigner,
					Prompt:      llm.BuildDesignPrompt(p.Spec),
					Task:        llm.VerilogGen{ProblemID: p.ID, Spec: p.Spec, Reference: p.Reference, Difficulty: p.Difficulty},
					Temperature: 0.9,
				})
				if err != nil {
					panic(err)
				}
				srcs = append(srcs, resp.Text)
			}
			perSeed = append(perSeed, srcs)
		}
		problems = append(problems, p)
		cands = append(cands, perSeed)
	}
	return problems, cands
}

// BenchmarkVRankSerial scores the workload the way the seed did: a fresh
// lex→parse→elaborate→simulate per score, oracle re-runs from scratch.
func BenchmarkVRankSerial(b *testing.B) {
	problems, cands := vrankWorkload()
	sim := verilog.SimOptions{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for pi, p := range problems {
			sb := vrank.StimulusBench(p.Testbench())
			for _, batch := range cands[pi] {
				var sigs []string
				for _, src := range batch {
					res, err := verilog.CompileAndRun(src+"\n"+sb, "tb", sim)
					if err != nil {
						sigs = append(sigs, "")
						continue
					}
					// Same fingerprint rule as vrank.Signatures, so both
					// benchmarks cluster — and therefore simulate —
					// identically.
					sigs = append(sigs, vrank.Fingerprint(res))
				}
				tb := p.Testbench()
				passes := func(src string) bool {
					r, err := verilog.CompileAndRun(src+"\n"+tb, "tb", sim)
					return err == nil && r.Passed()
				}
				chosen := chooseBySignature(sigs)
				if chosen >= 0 {
					passes(batch[chosen])
				}
				passes(batch[0])
				for _, src := range batch {
					if passes(src) {
						break
					}
				}
			}
		}
	}
}

// BenchmarkVRankBatch scores the same workload through the simfarm
// engine, cache-cold per iteration (Purge), so the measured win is the
// intra-workload compile/run sharing — not warm-cache residue.
func BenchmarkVRankBatch(b *testing.B) {
	problems, cands := vrankWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simfarm.Default().Purge()
		vrankFarmPass(problems, cands)
	}
}

// BenchmarkVRankWarm is BenchmarkVRankBatch without the Purge, after one
// untimed pass: every farm probe hits, so it times the probe path itself
// (building and hashing each layer's key, comparing it with the cached
// one, the LRU bookkeeping) rather than compiles and runs.
func BenchmarkVRankWarm(b *testing.B) {
	problems, cands := vrankWorkload()
	vrankFarmPass(problems, cands)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vrankFarmPass(problems, cands)
	}
}

// vrankFarmPass ranks every candidate batch of the workload and runs the
// oracle checks through the default farm.
func vrankFarmPass(problems []*benchset.Problem, cands [][][]string) {
	for pi, p := range problems {
		tb := p.Testbench()
		for _, batch := range cands[pi] {
			sigs, _ := vrank.Signatures(context.Background(), p, batch, 0)
			jobs := make([]simfarm.Job, len(batch))
			for j, src := range batch {
				jobs[j] = simfarm.Job{DUT: src, TB: tb, Top: "tb"}
			}
			oracle := simfarm.Default().RunMany(jobs, 0)
			chosen := chooseBySignature(sigs)
			if chosen >= 0 {
				_ = oracle[chosen].Passed()
			}
			_ = oracle[0].Passed()
			for _, r := range oracle {
				if r.Passed() {
					break
				}
			}
		}
	}
}

// --- simulator kernel micro-benchmarks ---------------------------------
//
// Per-run cost of the heap-scheduled, coroutine-free kernel, isolated
// from the front end: each bench compiles once outside the timer and
// measures cd.Run only. SeqClock is dispatch-bound (every timestep
// resumes processes through the event heap), CombSweep is
// propagation-bound (continuous-assign fanout per input change), and
// ProcessChurn is wake-ordering-bound (many event-waiting processes per
// edge). Together they cover the three regions the kernel overhaul
// rearchitected.

func compileKernelBench(b *testing.B, src string) *verilog.CompiledDesign {
	b.Helper()
	cd, err := verilog.Compile(src, "tb")
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	return cd
}

func runKernelBench(b *testing.B, src string) {
	cd := compileKernelBench(b, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cd.Run(verilog.SimOptions{})
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		if res.RuntimeErr != nil || !res.Finished {
			b.Fatalf("bad run: %+v", res)
		}
	}
}

func BenchmarkKernelSeqClock(b *testing.B) {
	runKernelBench(b, `
module counter(input clk, input rst, output reg [15:0] q);
  always @(posedge clk) begin
    if (rst) q <= 0;
    else q <= q + 1;
  end
endmodule
module tb;
  reg clk, rst;
  wire [15:0] q;
  counter dut(.clk(clk), .rst(rst), .q(q));
  always #1 clk = ~clk;
  initial begin
    clk = 0; rst = 1;
    #4 rst = 0;
    #4000;
    $check_eq(q, 16'd2000);
    $finish;
  end
endmodule`)
}

func BenchmarkKernelCombSweep(b *testing.B) {
	runKernelBench(b, `
module logicnet(input [7:0] a, b, output [7:0] x, y, z);
  wire [7:0] s = a + b;
  wire [7:0] p = a ^ b;
  wire [7:0] q = {s[3:0], p[7:4]};
  assign x = s & p;
  assign y = q | s;
  assign z = x ^ y ^ q;
endmodule
module tb;
  reg [7:0] a, b;
  wire [7:0] x, y, z;
  logicnet dut(.a(a), .b(b), .x(x), .y(y), .z(z));
  integer i;
  initial begin
    for (i = 0; i < 1000; i = i + 1) begin
      a = i; b = i * 7;
      #1;
      $check_eq(z, x ^ y ^ {a[3:0] + b[3:0], a[7:4] ^ b[7:4]});
    end
    $finish;
  end
endmodule`)
}

func BenchmarkKernelProcessChurn(b *testing.B) {
	runKernelBench(b, `
module tb;
  reg clk;
  reg [7:0] c0, c1, c2, c3, c4, c5, c6, c7;
  always #1 clk = ~clk;
  always @(posedge clk) c0 <= c0 + 1;
  always @(posedge clk) c1 <= c1 + 1;
  always @(posedge clk) c2 <= c2 + 1;
  always @(posedge clk) c3 <= c3 + 1;
  always @(negedge clk) c4 <= c4 + 1;
  always @(negedge clk) c5 <= c5 + 1;
  always @(c0 or c4) c6 = c0 ^ c4;
  always @(*) c7 = c1 ^ c5;
  initial begin
    clk = 0;
    c0 = 0; c1 = 0; c2 = 0; c3 = 0; c4 = 0; c5 = 0; c6 = 0; c7 = 0;
    #2000;
    $check_eq(c0, c1);
    $check_eq(c4, c5);
    $finish;
  end
endmodule`)
}

// BenchmarkKernelProbeOff / BenchmarkKernelProbeOn bound the cost of the
// commit-probe hook (the trace-capture layer under internal/xdebug) on a
// commit-heavy sequential workload. Off is the zero-overhead-when-off
// guard: with no probe attached the hot paths add only a nil check per
// commit and a dead line store per VM store opcode, so this point must
// track the other Kernel benchmarks. On measures the attached-probe tax
// (one indirect call per transition) that xdebug runs pay; it is
// diagnostic, not a regression gate.
func runKernelProbeBench(b *testing.B, probe bool) {
	cd := compileKernelBench(b, `
module tb;
  reg clk;
  reg [15:0] q0, q1;
  reg [15:0] mix;
  always #1 clk = ~clk;
  always @(posedge clk) q0 <= q0 + 1;
  always @(posedge clk) q1 <= q1 + 3;
  always @(q0 or q1) mix = q0 ^ q1;
  initial begin
    clk = 0; q0 = 0; q1 = 0; mix = 0;
    #4000;
    $check_eq(q0, 16'd2000);
    $check_eq(mix, q0 ^ q1);
    $finish;
  end
endmodule`)
	var events int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := verilog.NewSimulator(cd.Design, verilog.SimOptions{})
		if probe {
			sim.SetProbe(func(t uint64, sig verilog.SignalID, word int, line int32, v verilog.Value) {
				events++
			})
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		if res.RuntimeErr != nil || !res.Finished || res.Failures != 0 {
			b.Fatalf("bad run: %+v", res)
		}
	}
	if probe && events == 0 {
		b.Fatal("probe attached but saw no transitions")
	}
}

func BenchmarkKernelProbeOff(b *testing.B) { runKernelProbeBench(b, false) }

func BenchmarkKernelProbeOn(b *testing.B) { runKernelProbeBench(b, true) }

// BenchmarkCompile measures the full front end — lex, parse, elaborate,
// and the bytecode lowering pass — on a representative DUT+testbench
// pair, so the compile-time cost the lowering stage added to
// verilog.Compile is measured alongside the run-time wins it buys.
func BenchmarkCompile(b *testing.B) {
	p := benchset.ByID("alu8")
	src := p.Reference + "\n" + p.Testbench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verilog.Compile(src, "tb"); err != nil {
			b.Fatalf("compile: %v", err)
		}
	}
}

// BenchmarkVMDispatch isolates the bytecode dispatch loop: a single
// initial process grinding pure register arithmetic (no delays, no
// event waits, no propagation), so ns/op tracks per-instruction VM
// overhead rather than scheduler or commit costs.
func BenchmarkVMDispatch(b *testing.B) {
	cd := compileKernelBench(b, `
module tb;
  reg [31:0] acc;
  reg [31:0] i;
  initial begin
    acc = 0;
    for (i = 0; i < 20000; i = i + 1)
      acc = ((acc ^ i) + (i * 3)) & 32'hFFFFFF;
    $check_eq(acc, 32'h3c5120);
    $finish;
  end
endmodule`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cd.Run(verilog.SimOptions{MaxSteps: 1 << 22})
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		if res.RuntimeErr != nil || !res.Finished || res.Failures != 0 {
			b.Fatalf("bad run: %+v", res)
		}
	}
}

// BenchmarkLintAnalysis / BenchmarkLintEndToEnd bound the cost of the
// pre-simulation screen relative to the simulation it replaces.
// Analysis measures the rule passes alone on a pre-elaborated design —
// the marginal cost when the farm's parse cache is warm. EndToEnd is
// the cache-cold path: lex, parse, elaborate, then analyze. Both run on
// the suite's richest reference (alu8); compare against
// BenchmarkKernelSeqClock for the screen-vs-simulate ratio.
func BenchmarkLintAnalysis(b *testing.B) {
	p := benchset.ByID("alu8")
	file, err := verilog.Parse(p.Reference)
	if err != nil {
		b.Fatalf("parse: %v", err)
	}
	d, err := verilog.Elaborate(file, p.TopModule)
	if err != nil {
		b.Fatalf("elaborate: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := vlint.Lint(file, d); len(vlint.Errors(diags)) != 0 {
			b.Fatalf("reference has error findings: %v", diags)
		}
	}
}

func BenchmarkLintEndToEnd(b *testing.B) {
	p := benchset.ByID("alu8")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags, err := vlint.LintSource(p.Reference, p.TopModule)
		if err != nil {
			b.Fatalf("lint: %v", err)
		}
		if len(vlint.Errors(diags)) != 0 {
			b.Fatalf("reference has error findings: %v", diags)
		}
	}
}

// BenchmarkSLTPoolSerial / BenchmarkSLTPoolBatch measure the §V
// population-scoring path (chdl→isa→boom, no Verilog): serial loop vs
// slt.ScoreBatch on the simfarm worker pool. The batch path matches serial on one core and scales with
// GOMAXPROCS on parallel hardware.
func BenchmarkSLTPoolSerial(b *testing.B) {
	srcs := slt.SeedExamples()
	bopts := boom.RunOptions{MaxInsts: 300_000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			slt.Score(src, bopts)
		}
	}
}

func BenchmarkSLTPoolBatch(b *testing.B) {
	srcs := slt.SeedExamples()
	bopts := boom.RunOptions{MaxInsts: 300_000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slt.ScoreBatchCtx(context.Background(), srcs, bopts, 0)
	}
}

// chooseBySignature picks the earliest member of the largest non-empty
// signature cluster (vrank's selection rule, minus the tie-break detail).
func chooseBySignature(sigs []string) int {
	counts := map[string]int{}
	for _, s := range sigs {
		if s != "" {
			counts[s]++
		}
	}
	best, bestN := -1, 0
	for i, s := range sigs {
		if s != "" && counts[s] > bestN {
			best, bestN = i, counts[s]
		}
	}
	return best
}

// BenchmarkObsOverhead prices the zero-overhead-when-off contract of
// internal/obs: the exact shape a hot path pays when telemetry is
// disabled — a SpansOf lookup on a bare context followed by the nil
// check that guards every recording call, plus a Record on a nil
// histogram (the nil-receiver fast path). Both must stay at a few ns
// with zero allocations; a regression here means instrumentation has
// started taxing runs that never asked for it.
func BenchmarkObsOverhead(b *testing.B) {
	ctx := context.Background()
	var h *obs.Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sp := obs.SpansOf(ctx); sp != nil {
			sp.Record(obs.PhaseSim, 0)
		}
		h.Record(0)
	}
}
