package gp

import (
	"context"
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
// measures it without a trap.
func TestScoreRequiresHalt(t *testing.T) {
	g := genome{outer: minOuter, accs: 1, arrLog: 4,
		body: []gene{{kind: geneALU, dst: 0, src: 0, op: 0, k: 5}}}
	if s := score(g, boom.RunOptions{MaxInsts: 400_000}); s <= 0 {
		t.Errorf("halting genome scored %.3f, want > 0", s)
	}
	short := boom.RunOptions{MaxInsts: 1_000}
	if s := score(g, short); s != 0 {
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
}
