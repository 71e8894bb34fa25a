package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llm4eda/eda"
	"llm4eda/internal/benchset"
)

func TestRunDispatch(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Errorf("list: %v", err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help: %v", err)
	}
	if err := run(nil); err == nil {
		t.Error("expected error for no args")
	}
	if err := run([]string{"nope"}); err == nil {
		t.Error("expected error for unknown subcommand")
	}
	if err := run([]string{"exp"}); err == nil {
		t.Error("expected error for exp without id")
	}
	if err := run([]string{"exp", "E99"}); err == nil {
		t.Error("expected error for unknown experiment")
	}
	if err := run([]string{"agent", "no-such-problem"}); err == nil {
		t.Error("expected error for unknown problem")
	}
	if err := run([]string{"agent", "-tier", "gpt9"}); err == nil {
		t.Error("expected error for unknown tier")
	}
	if err := run([]string{"slt", "-p", "bogus=1"}); err == nil {
		t.Error("expected error for unknown framework param")
	}
	if err := run([]string{"agent", "adder4", "mux2"}); err == nil {
		t.Error("expected error for more than one problem id")
	}
}

// TestTableCoversRegistry pins the redesign's contract: every registered
// pipeline is reachable as a subcommand without CLI changes.
func TestTableCoversRegistry(t *testing.T) {
	have := map[string]bool{}
	for _, c := range commandTable() {
		have[c.name] = true
	}
	for _, fw := range eda.Frameworks() {
		if !have[fw] {
			t.Errorf("framework %q has no subcommand", fw)
		}
	}
	for _, extra := range []string{"exp", "list", "serve"} {
		if !have[extra] {
			t.Errorf("missing %q command", extra)
		}
	}
}

// TestJSONReportFlag pins the -json contract: stdout carries exactly one
// JSON document in the shared report wire format (the same bytes the
// serve API would return for this spec), progress noise goes to stderr.
func TestJSONReportFlag(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	// Drain concurrently: a report larger than the kernel pipe buffer
	// must not deadlock the writer.
	type readResult struct {
		out []byte
		err error
	}
	readCh := make(chan readResult, 1)
	go func() {
		out, err := io.ReadAll(r)
		readCh <- readResult{out, err}
	}()
	os.Stdout = w
	runErr := run([]string{"vrank", "-json", "-p", "k=3", "mux4"})
	w.Close()
	os.Stdout = old
	res := <-readCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	out := res.out
	if runErr != nil {
		t.Fatalf("run -json: %v", runErr)
	}
	var wire struct {
		Framework string             `json:"framework"`
		OK        bool               `json:"ok"`
		Summary   string             `json:"summary"`
		Metrics   map[string]float64 `json:"metrics"`
		Spec      eda.Spec           `json:"spec"`
	}
	if err := json.Unmarshal(out, &wire); err != nil {
		t.Fatalf("stdout is not one JSON report: %v\n%s", err, out)
	}
	if wire.Framework != "vrank" || wire.Summary == "" || len(wire.Metrics) == 0 {
		t.Errorf("report wire incomplete: %+v", wire)
	}
	if wire.Spec.Run.Seed != 1 || wire.Spec.Run.Tier != "frontier" {
		t.Errorf("wire spec lost its defaults: %+v", wire.Spec.Run)
	}
}

// TestServeArgValidation: serve rejects positional args and a bad listen
// address without hanging.
func TestServeArgValidation(t *testing.T) {
	if err := run([]string{"serve", "extra"}); err == nil {
		t.Error("expected error for positional args")
	}
	if err := run([]string{"serve", "-addr", "999.999.999.999:1"}); err == nil {
		t.Error("expected error for unlistenable address")
	}
}

func TestParamFlags(t *testing.T) {
	p := paramFlags{}
	if err := p.Set("k=4"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := p.Set("temperature=0.8"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if p["k"] != 4 || p["temperature"] != 0.8 {
		t.Errorf("params = %v", p)
	}
	if err := p.Set("bad"); err == nil {
		t.Error("expected error for missing =")
	}
	if err := p.Set("x=notanumber"); err == nil {
		t.Error("expected error for non-numeric value")
	}
}

func TestFirstSentence(t *testing.T) {
	for spec, want := range map[string]string{
		"A 4-bit adder: does things": "A 4-bit adder",
		// A colon inside a ratio is not the end of the sentence.
		benchset.ByID("mux2").Spec: "An 8-bit 2:1 multiplexer",
		benchset.ByID("mux4").Spec: "An 8-bit 4:1 multiplexer with a 2-bit select",
	} {
		if got := firstSentence(spec); got != want {
			t.Errorf("firstSentence(%q) = %q, want %q", spec, got, want)
		}
	}
	long := strings.Repeat("x", 128)
	if got := firstSentence(long); len(got) > 64 {
		t.Errorf("long spec not truncated: %d", len(got))
	}
}

// TestProfilingFlagsWriteFiles smoke-tests the global -cpuprofile and
// -memprofile flags: after a real (tiny) run both files must exist and
// be non-empty, so future perf PRs can profile actual pipeline runs.
func TestProfilingFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if err := run([]string{"-cpuprofile", cpu, "-memprofile", mem, "list"}); err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// The flags must not eat the subcommand's own flags.
	if err := run([]string{"-cpuprofile", filepath.Join(dir, "c2.prof"), "exp"}); err == nil {
		t.Error("expected error for exp without id under profiling")
	}
}
