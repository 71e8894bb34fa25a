package benchset

import (
	"slices"
	"sync"
	"testing"

	"llm4eda/internal/verilog"
)

// TestConcurrentCallersShareOneSuite has eight goroutines look every
// problem up and build its testbench at once, each starting at a
// different problem, and checks them against a privately built suite.
// It is the first test in the package, so a plain run also races the
// suite's first build and every testbench memo; make test-race runs it
// under the race detector.
func TestConcurrentCallersShareOneSuite(t *testing.T) {
	fresh := attachCModels(append(combSuite(), seqSuite()...))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range fresh {
				k := (i + w) % len(fresh)
				want := fresh[k]
				p := ByID(want.ID)
				if p == nil || p != Suite()[k] {
					t.Errorf("ByID(%q) is not the suite's entry %d", want.ID, k)
					return
				}
				if p.Testbench() != want.Testbench() {
					t.Errorf("%s: shared testbench differs from a fresh build", p.ID)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAllReferencesPass is the suite's ground-truth guarantee: every
// reference implementation passes its own full testbench.
func TestAllReferencesPass(t *testing.T) {
	for _, p := range Suite() {
		p := p
		t.Run(p.ID, func(t *testing.T) {
			res, err := verilog.RunTestbench(p.Reference, p.Testbench(), "tb", verilog.SimOptions{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if res.RuntimeErr != nil {
				t.Fatalf("runtime: %v\n%s", res.RuntimeErr, res.Output)
			}
			if !res.Passed() {
				t.Fatalf("reference fails own testbench: %d/%d failures\n%s",
					res.Failures, res.Checks, res.Output)
			}
		})
	}
}

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) < 20 {
		t.Fatalf("suite has %d problems, want >= 20", len(suite))
	}
	seen := map[string]bool{}
	diffs := map[int]int{}
	for _, p := range suite {
		if seen[p.ID] {
			t.Errorf("duplicate problem id %q", p.ID)
		}
		seen[p.ID] = true
		if p.Spec == "" || p.Reference == "" || p.TopModule == "" {
			t.Errorf("%s: incomplete problem", p.ID)
		}
		if p.Checks() < 4 {
			t.Errorf("%s: only %d checks; testbench coverage too thin", p.ID, p.Checks())
		}
		if p.Difficulty < 1 || p.Difficulty > 5 {
			t.Errorf("%s: difficulty %d out of range", p.ID, p.Difficulty)
		}
		diffs[p.Difficulty]++
		if len(p.TBBlocks) < 2 {
			t.Errorf("%s: %d testbench blocks; coverage model needs >= 2", p.ID, len(p.TBBlocks))
		}
	}
	for d := 1; d <= 5; d++ {
		if diffs[d] == 0 {
			t.Errorf("no problems at difficulty %d", d)
		}
	}
}

func TestByIDAndEightDesignSet(t *testing.T) {
	for _, p := range Suite() {
		if got := ByID(p.ID); got != p {
			t.Errorf("ByID(%q) = %p, want the suite's entry %p", p.ID, got, p)
		}
	}
	if ByID("no-such") != nil {
		t.Error("ByID(no-such) != nil")
	}
	eight := EightDesignSet()
	if len(eight) != 8 {
		t.Fatalf("EightDesignSet has %d problems", len(eight))
	}
}

// TestSuiteResultIsTheCallersOwn checks that reordering, overwriting,
// truncating or appending to one Suite result cannot reach the next
// call: each call returns a fresh slice over the same shared problems.
func TestSuiteResultIsTheCallersOwn(t *testing.T) {
	// A private copy, so that a Suite handing out its own slice cannot
	// edit the expectation along with the result.
	want := slices.Clone(Suite())
	slices.Reverse(Suite())
	overwritten := Suite()
	overwritten[0] = &Problem{ID: "overwritten"}
	truncated := Suite()[:1]
	_ = append(truncated, &Problem{ID: "appended"})
	if got := Suite(); !slices.Equal(got, want) {
		t.Errorf("Suite changed after callers edited earlier results: %d problems, first %q", len(got), got[0].ID)
	}
}

// TestLookupsDoNotRebuild pins the cost of a lookup once the suite
// exists: ByID allocates nothing and Suite only its slice copy. Building
// the suite takes about 26k allocations.
func TestLookupsDoNotRebuild(t *testing.T) {
	Suite()
	if n := testing.AllocsPerRun(100, func() { sinkProblem = ByID("alu8") }); n != 0 {
		t.Errorf("ByID: %v allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkSuite = Suite() }); n != 1 {
		t.Errorf("Suite: %v allocations per call, want 1", n)
	}
}

var (
	sinkProblem *Problem
	sinkSuite   []*Problem
)

// TestTruncatedTestbenchStillRuns checks the coverage-loss model's
// assumption: a testbench with only the first vector block still compiles
// and finishes.
func TestTruncatedTestbenchStillRuns(t *testing.T) {
	for _, p := range Suite() {
		p := p
		t.Run(p.ID, func(t *testing.T) {
			tb := p.TBHeader + p.TBBlocks[0] + p.TBFooter
			res, err := verilog.RunTestbench(p.Reference, tb, "tb", verilog.SimOptions{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if res.RuntimeErr != nil || !res.Finished {
				t.Fatalf("truncated bench broken: %v\n%s", res.RuntimeErr, res.Output)
			}
			if res.Failures > 0 {
				t.Fatalf("reference fails truncated bench:\n%s", res.Output)
			}
		})
	}
}
