package verilog_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"llm4eda/internal/benchset"
	"llm4eda/internal/verilog"
)

// The kernel-equivalence contract: the heap-scheduled, coroutine-free
// interpreter kernel must be observationally identical to the seed's
// goroutine-per-process kernel. The fixtures under testdata were captured
// by running every benchset problem's reference DUT against its full
// testbench across ten seeds on the pre-rewrite kernel; any drift in
// Output, the final-signal snapshot, or EndTime is a kernel regression,
// not a fixture update.
//
// Regenerate (only when semantics change deliberately, e.g. a documented
// fidelity fix) with: go test ./internal/verilog -run KernelGolden -update

var updateGolden = flag.Bool("update", false, "rewrite the kernel golden fixtures")

const goldenSeeds = 10

// goldenRun is one recorded simulation outcome.
type goldenRun struct {
	Output   string `json:"output"`
	Signals  string `json:"signals"` // FormatSignals(res, "") — Final + FinalMem
	EndTime  uint64 `json:"end_time"`
	Checks   int    `json:"checks"`
	Failures int    `json:"failures"`
	Finished bool   `json:"finished"`
	TimedOut bool   `json:"timed_out"`
}

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "kernel_golden.json")
}

func runGolden(t *testing.T, p *benchset.Problem, seed uint64) goldenRun {
	t.Helper()
	res, err := verilog.RunTestbench(p.Reference, p.Testbench(), "tb", verilog.SimOptions{Seed: seed})
	if err != nil {
		t.Fatalf("%s seed %d: %v", p.ID, seed, err)
	}
	if res.RuntimeErr != nil {
		t.Fatalf("%s seed %d: runtime error %v", p.ID, seed, res.RuntimeErr)
	}
	return goldenRun{
		Output:   res.Output,
		Signals:  verilog.FormatSignals(res, ""),
		EndTime:  res.EndTime,
		Checks:   res.Checks,
		Failures: res.Failures,
		Finished: res.Finished,
		TimedOut: res.TimedOut,
	}
}

func TestKernelGoldenEquivalence(t *testing.T) {
	got := map[string][]goldenRun{}
	for _, p := range benchset.Suite() {
		runs := make([]goldenRun, 0, goldenSeeds)
		for seed := uint64(1); seed <= goldenSeeds; seed++ {
			runs = append(runs, runGolden(t, p, seed))
		}
		// Determinism inside one kernel: the same seed must reproduce the
		// same bytes, or golden comparison is meaningless.
		again := runGolden(t, p, 1)
		if !reflect.DeepEqual(again, runs[0]) {
			t.Fatalf("%s: same-seed rerun diverged", p.ID)
		}
		got[p.ID] = runs
	}

	path := goldenPath(t)
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s: %d problems x %d seeds", path, len(got), goldenSeeds)
		return
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixtures (run with -update to create): %v", err)
	}
	want := map[string][]goldenRun{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden fixtures: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("fixture covers %d problems, suite has %d (run -update after adding problems)", len(want), len(got))
	}
	for id, runs := range got {
		wantRuns, ok := want[id]
		if !ok {
			t.Errorf("%s: no fixture (run -update after adding problems)", id)
			continue
		}
		if len(wantRuns) != len(runs) {
			t.Errorf("%s: fixture records %d runs, suite produced %d (run -update after changing goldenSeeds)",
				id, len(wantRuns), len(runs))
		}
		for i, run := range runs {
			if i >= len(wantRuns) {
				break
			}
			if run != wantRuns[i] {
				t.Errorf("%s seed %d diverged from the recorded kernel:\n got: %+v\nwant: %+v",
					id, i+1, diffSummary(run, wantRuns[i]), wantRuns[i])
			}
		}
	}
}

// diffSummary trims the noisy equal fields so failures point at the drift.
func diffSummary(got, want goldenRun) string {
	var parts []string
	if got.Output != want.Output {
		parts = append(parts, fmt.Sprintf("Output %q != %q", got.Output, want.Output))
	}
	if got.Signals != want.Signals {
		parts = append(parts, fmt.Sprintf("Signals %q != %q", got.Signals, want.Signals))
	}
	if got.EndTime != want.EndTime {
		parts = append(parts, fmt.Sprintf("EndTime %d != %d", got.EndTime, want.EndTime))
	}
	if got.Checks != want.Checks || got.Failures != want.Failures {
		parts = append(parts, fmt.Sprintf("checks %d/%d != %d/%d", got.Checks, got.Failures, want.Checks, want.Failures))
	}
	if got.Finished != want.Finished || got.TimedOut != want.TimedOut {
		parts = append(parts, fmt.Sprintf("finished/timedout %v/%v != %v/%v", got.Finished, got.TimedOut, want.Finished, want.TimedOut))
	}
	if len(parts) == 0 {
		return "(equal)"
	}
	return fmt.Sprint(parts)
}
