package chdl_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"llm4eda/internal/benchset"
	"llm4eda/internal/chdl"
	"llm4eda/internal/repair"
)

// interpGolden is testdata/interp_golden.json: every C program found in
// the repository's Go sources (the benchset C models, the repair suite,
// the hlstest kernels, the examples and the test programs), each run on
// argument vectors for every function whose parameters are all scalar.
// The results were recorded with the map-scoped interpreter that the
// slot-resolved one replaced, and there is no update path: a mismatch is
// a semantic change of the interpreter. The one intended change is the
// line a step-limit error names when the budget runs out inside an
// expression: the recording interpreter named line 0 there, and the
// current one names the expression's line (pinned exactly by
// TestStepLimitNamesExpressionLine).
type interpGolden struct {
	MaxSteps int64           `json:"max_steps"`
	Programs []goldenProgram `json:"programs"`
}

type goldenProgram struct {
	ID     string       `json:"id"`
	Source string       `json:"source"`
	Cases  []goldenCase `json:"cases"`
}

// goldenCase is one call on a fresh interpreter: its return value or
// error text, the steps it took (global initialization included), its
// printf output, its taken-branch counts in line order, and an FNV-64a
// hash of the (line, name, value) sequence TraceAll reported.
type goldenCase struct {
	Func       string     `json:"func"`
	Args       []int64    `json:"args"`
	Ret        int64      `json:"ret"`
	Err        string     `json:"err,omitempty"`
	Steps      int64      `json:"steps"`
	Output     string     `json:"output,omitempty"`
	Branches   [][2]int64 `json:"branches,omitempty"`
	TraceCalls int        `json:"trace_calls"`
	TraceHash  string     `json:"trace_hash"`
}

// runGoldenCase calls fn on a fresh interpreter over prog and records
// everything the fixture pins.
func runGoldenCase(prog *chdl.Program, maxSteps int64, fn string, args []int64) goldenCase {
	c := goldenCase{Func: fn, Args: args}
	in, err := chdl.NewInterp(prog, chdl.InterpOptions{MaxSteps: maxSteps})
	if err != nil {
		c.Err = "init: " + err.Error()
		return c
	}
	h := fnv.New64a()
	in.TraceAll = true
	in.Trace = func(line int, name string, v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(line))
		h.Write(b[:])
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
		c.TraceCalls++
	}
	c.Ret, err = in.CallInts(fn, args...)
	if err != nil {
		c.Err = err.Error()
	}
	c.Steps = in.Steps()
	c.Output = in.Output()
	for line, n := range in.BranchCount {
		c.Branches = append(c.Branches, [2]int64{int64(line), n})
	}
	sort.Slice(c.Branches, func(i, j int) bool { return c.Branches[i][0] < c.Branches[j][0] })
	c.TraceHash = fmt.Sprintf("%016x", h.Sum64())
	return c
}

// stepLimitLine0 is the recording interpreter's text for a step budget
// exhausted inside an expression.
const stepLimitLine0 = "chdl: step limit exceeded at line 0"

func loadInterpGolden(t testing.TB) *interpGolden {
	t.Helper()
	data, err := os.ReadFile("testdata/interp_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g interpGolden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	return &g
}

// TestInterpGolden replays the fixture on the current interpreter, each
// program parsed once and shared by all of its cases, as the farm's C
// parse layer shares one Program between jobs.
func TestInterpGolden(t *testing.T) {
	g := loadInterpGolden(t)
	cases := 0
	for _, p := range g.Programs {
		prog, err := chdl.ParseC(p.Source)
		if err != nil {
			t.Errorf("%s: %v", p.ID, err)
			continue
		}
		for _, want := range p.Cases {
			cases++
			got := runGoldenCase(prog, g.MaxSteps, want.Func, want.Args)
			if want.Err == stepLimitLine0 && strings.HasPrefix(got.Err, "chdl: step limit exceeded at line ") &&
				got.Err != stepLimitLine0 {
				want.Err = got.Err
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s%v:\n got  %+v\n want %+v", p.ID, want.Func, want.Args, got, want)
			}
		}
	}
	if cases == 0 {
		t.Fatal("fixture has no cases")
	}
}

// TestInterpGoldenCoversSuites keeps the fixture complete: every benchset
// C model and every repair kernel must be one of its programs.
func TestInterpGoldenCoversSuites(t *testing.T) {
	have := map[string]bool{}
	for _, p := range loadInterpGolden(t).Programs {
		have[p.Source] = true
	}
	for _, p := range benchset.Suite() {
		if p.CModel != "" && !have[p.CModel] {
			t.Errorf("benchset %s: C model missing from the fixture", p.ID)
		}
	}
	for _, k := range repair.BenchKernels() {
		if !have[k.Source] {
			t.Errorf("repair %s: kernel missing from the fixture", k.ID)
		}
	}
}
