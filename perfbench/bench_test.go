package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binPath is the llm4eda binary TestMain builds for the serve workloads.
var binPath string

func TestMain(m *testing.M) {
	// sltSetupSamples re-executes this binary as a set-up probe.
	if len(os.Args) > 1 && os.Args[1] == "-setup-probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "llm4eda")
	build := exec.Command("go", "build", "-o", binPath, "llm4eda/cmd/llm4eda")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build llm4eda:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// tables of this program in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloads)
	}
	same := func(kind string, listed []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if l := listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, l, d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestSmoke runs every workload briefly in both modes and checks that the
// run is correct and prints exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-smoke", "-workload", w, "-seed", "3", "-seconds", "0.5",
					"-trace", trace, "-bin", binPath, "-out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := bj.EndToEnd
				if trace == "1" {
					want = bj.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					mv, ok := res.Metrics[d.Name]
					if !ok || mv.Unit != d.Unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", d.Name, mv, ok, d.Unit)
					}
					if trace == "0" && mv.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, mv.Value)
					}
				}
			})
		}
	}
}
