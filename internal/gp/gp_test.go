package gp

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"llm4eda/internal/boom"
	"llm4eda/internal/chdl"
	"llm4eda/internal/core"
	"llm4eda/internal/isa"
)

func fastBoom() boom.RunOptions {
	return boom.RunOptions{MaxInsts: 300_000}
}

func TestRandomGenomesCompileAndRun(t *testing.T) {
	r := newRNG(1)
	valid := 0
	for i := 0; i < 20; i++ {
		g := randomGenome(r)
		src := g.render()
		prog, err := chdl.ParseC(src)
		if err != nil {
			t.Errorf("genome %d does not parse: %v\n%s", i, err, src)
			continue
		}
		if _, err := isa.Compile(prog, "main"); err != nil {
			t.Errorf("genome %d does not compile: %v", i, err)
			continue
		}
		valid++
	}
	if valid < 18 {
		t.Errorf("only %d/20 random genomes valid", valid)
	}
}

func TestGPImproves(t *testing.T) {
	res, err := Run(context.Background(), Config{RunSpec: core.RunSpec{Seed: 3}, MaxEvals: 80, Boom: fastBoom()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Best.Score < 4.2 {
		t.Errorf("GP best %.3f W implausibly low", res.Best.Score)
	}
	if res.Trajectory[len(res.Trajectory)-1] <= res.Trajectory[0] {
		t.Errorf("GP never improved: %v ... %v", res.Trajectory[0], res.Trajectory[len(res.Trajectory)-1])
	}
}

func TestGPDeterministic(t *testing.T) {
	a, _ := Run(context.Background(), Config{RunSpec: core.RunSpec{Seed: 7}, MaxEvals: 40, Boom: fastBoom()})
	b, _ := Run(context.Background(), Config{RunSpec: core.RunSpec{Seed: 7}, MaxEvals: 40, Boom: fastBoom()})
	if a.Best.Score != b.Best.Score {
		t.Errorf("nondeterministic GP: %.4f vs %.4f", a.Best.Score, b.Best.Score)
	}
}

func TestCrossoverMutationBounds(t *testing.T) {
	r := newRNG(9)
	for i := 0; i < 200; i++ {
		a, b := randomGenome(r), randomGenome(r)
		c := mutate(r, crossover(r, a, b), 0.5)
		if c.accs < 1 || c.accs > maxAccs {
			t.Fatalf("accs out of range: %d", c.accs)
		}
		if len(c.body) == 0 || len(c.body) > maxBodyLen {
			t.Fatalf("body length out of range: %d", len(c.body))
		}
		if c.outer < minOuter || c.outer > maxOuter {
			t.Fatalf("outer out of range: %d", c.outer)
		}
		if !strings.Contains(c.render(), "int main()") {
			t.Fatal("render broken")
		}
	}
}

// TestScoreRequiresHalt pins score's rule: a small genome that halts
// inside the window scores its watts, and the same genome under a window
// that closes before it halts scores zero, although the processor model
// measures it without a trap. The zero comes from the screen, which runs
// out of steps where the timing model times out, so boom.Run is not
// called for it.
func TestScoreRequiresHalt(t *testing.T) {
	g := genome{outer: minOuter, accs: 1, arrLog: 4,
		body: []gene{{kind: geneALU, dst: 0, src: 0, op: 0, k: 5}}}
	long := boom.RunOptions{MaxInsts: 400_000}
	if s := score(g.render(), long); s <= 0 {
		t.Errorf("halting genome scored %.3f, want > 0", s)
	}
	short := boom.RunOptions{MaxInsts: 1_000}
	if s := score(g.render(), short); s != 0 {
		t.Errorf("genome cut off by the window scored %.3f, want 0", s)
	}
	prog, err := chdl.ParseC(g.render())
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := isa.Compile(prog, "main")
	if err != nil {
		t.Fatal(err)
	}
	if res := boom.Run(compiled, short); !res.TimedOut || res.Trap != nil || res.PowerW <= 0 {
		t.Errorf("short window: timed out %v, trap %v, %.3f W; want a measured, untrapped timeout", res.TimedOut, res.Trap, res.PowerW)
	}
	if _, err := isa.Interpret(compiled, int(short.MaxInsts)); !errors.Is(err, isa.ErrISAStepLimit) {
		t.Errorf("short window: the screen returned %v, want the step limit", err)
	}
	res := boom.Run(compiled, long)
	if v, err := isa.Interpret(compiled, int(long.MaxInsts)); err != nil || !res.Halted || v != res.ReturnValue {
		t.Errorf("long window: the screen returned %d, %v; the model halted %v with %d", v, err, res.Halted, res.ReturnValue)
	}
}

// modelScore is score without the screen: every genome that compiles runs
// through the timing model.
func modelScore(src string, opts boom.RunOptions) float64 {
	prog, err := chdl.ParseC(src)
	if err != nil {
		return 0
	}
	compiled, err := isa.Compile(prog, "main")
	if err != nil {
		return 0
	}
	res := boom.Run(compiled, opts)
	if res.Trap != nil || !res.Halted {
		return 0
	}
	return res.PowerW
}

// TestScreenMatchesModel: the screen changes no score. Genomes drawn as
// Run draws them, two random ones and a child of both per seed for 20
// seeds (4 under -short), score the same with the screen as through the
// timing model alone under the pipelines' 400,000-instruction window,
// which some of them halt inside and others do not. A genome that halts
// is scored again at the window's edge: with a window of exactly the
// instructions before its HALT it times out and scores zero, and with
// one more it halts.
func TestScreenMatchesModel(t *testing.T) {
	seeds := uint64(20)
	if testing.Short() {
		seeds = 4
	}
	const window = 400_000
	halted, cut := 0, 0
	for seed := uint64(1); seed <= seeds; seed++ {
		r := newRNG(seed)
		a, b := randomGenome(r), randomGenome(r)
		for _, g := range []genome{a, b, mutate(r, crossover(r, a, b), mutationRate)} {
			src := g.render()
			prog, err := chdl.ParseC(src)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			compiled, err := isa.Compile(prog, "main")
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res := boom.Run(compiled, boom.RunOptions{MaxInsts: window})
			windows := []uint64{window}
			if res.Halted {
				halted++
				windows = append(windows, res.Insts, res.Insts+1)
			} else {
				cut++
			}
			for i, w := range windows {
				opts := boom.RunOptions{MaxInsts: w}
				got, want := score(src, opts), modelScore(src, opts)
				if got != want {
					t.Errorf("seed %d, window %d: screened score %v, timing model alone %v", seed, w, got, want)
				}
				if i > 0 && (got > 0) != (w > res.Insts) {
					t.Errorf("seed %d, window %d: scored %v at the edge of a %d-instruction run", seed, w, got, res.Insts)
				}
			}
		}
	}
	if halted == 0 || cut == 0 {
		t.Errorf("%d genomes halted inside the window and %d did not; want some of each", halted, cut)
	}
	t.Logf("%d genomes halted inside the window, %d did not", halted, cut)
}

// TestRunCancelled: a context cancelled mid-run stops the steady state
// before the next child, and Run returns ctx.Err() with one trajectory
// point per evaluation.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	ctx = core.WithSink(ctx, core.SinkFunc(func(ev core.Event) {
		if ev.Kind == core.EventCandidate {
			if seen++; seen == 5 {
				cancel()
			}
		}
	}))
	res, err := Run(ctx, Config{RunSpec: core.RunSpec{Seed: 4}, MaxEvals: 10_000, Boom: fastBoom()})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err %v, want context.Canceled", err)
	}
	if res.Evals != 24+5 || len(res.Trajectory) != res.Evals {
		t.Errorf("%d evaluations, %d trajectory points; want 29, one point each", res.Evals, len(res.Trajectory))
	}
}

// TestRunHugeWorkers: a job's run.workers reaches Config.Workers without
// an upper bound, so a huge value must run as the default does, sizing
// nothing by it.
func TestRunHugeWorkers(t *testing.T) {
	cfg := Config{RunSpec: core.RunSpec{Seed: 3}, MaxEvals: 30, Boom: fastBoom()}
	want, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1 << 40
	got, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Workers 1<<40: %+v, want %+v", got, want)
	}
}

// benchGP keeps BenchmarkGPRun's results live.
var benchGP *Result

// BenchmarkGPRun runs the GP specs of perfbench's slt-batch workload: 60
// evaluations of a population of 24 under the 400,000-instruction window,
// on two fixed seeds per iteration. Workers is 0, so -cpu sets how many
// goroutines score the initial population.
func BenchmarkGPRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, seed := range []uint64{1, 2} {
			res, err := Run(context.Background(), Config{RunSpec: core.RunSpec{Seed: seed}, MaxEvals: 60, Boom: boom.RunOptions{MaxInsts: 400_000}})
			if err != nil {
				b.Fatal(err)
			}
			benchGP = res
		}
	}
}
