package chdl_test

import (
	"strings"
	"sync"
	"testing"

	"llm4eda/internal/benchset"
	"llm4eda/internal/chdl"
	"llm4eda/internal/repair"
)

// fuzzSteps is each fuzzed call's step budget.
const fuzzSteps = 10_000

// fuzzOutcome is everything one call on a fresh interpreter observes.
type fuzzOutcome struct {
	ret    int64
	err    string
	steps  int64
	output string
}

func fuzzCall(prog *chdl.Program, fn string, args []int64) fuzzOutcome {
	in, err := chdl.NewInterpMaxSteps(prog, fuzzSteps)
	if err != nil {
		return fuzzOutcome{err: "init: " + err.Error()}
	}
	var o fuzzOutcome
	o.ret, err = in.CallInts(fn, args...)
	if err != nil {
		o.err = err.Error()
	}
	o.steps, o.output = in.Steps(), in.Output()
	return o
}

// FuzzCInterp runs arbitrary C text through the parser and interpreter.
// Every function whose parameters are all scalar is called with fixed
// arguments on a step budget: twice in a row over one shared Program,
// then from two goroutines at once. Each call must return without a
// panic, stop within the budget (the step that trips it is the last one
// counted) and observe exactly what the others do.
func FuzzCInterp(f *testing.F) {
	for _, p := range loadInterpGolden(f).Programs {
		f.Add(p.Source)
	}
	for _, p := range benchset.Suite() {
		if p.CModel != "" {
			f.Add(p.CModel)
		}
	}
	for _, k := range repair.BenchKernels() {
		f.Add(k.Source)
	}
	f.Add("int f(int n) { while (1) { n = n + 1; } return n; }")
	f.Add("int g = 1;\nint f(int n) { if (n) int g = 2; return g; }")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := chdl.ParseC(src)
		if err != nil {
			return
		}
	funcs:
		for _, fn := range prog.Funcs {
			args := make([]int64, len(fn.Params))
			for i, p := range fn.Params {
				if p.Type.Kind == chdl.KindPtr || p.Type.Kind == chdl.KindArray {
					continue funcs
				}
				args[i] = int64(3 + 4*i)
			}
			first := fuzzCall(prog, fn.Name, args)
			if first.steps > fuzzSteps+1 {
				t.Fatalf("%s: %d steps on a budget of %d", fn.Name, first.steps, fuzzSteps)
			}
			if first.steps == fuzzSteps+1 && !strings.HasPrefix(first.err, chdl.ErrStepLimit.Error()) {
				t.Fatalf("%s: used the whole budget but returned %q", fn.Name, first.err)
			}
			if again := fuzzCall(prog, fn.Name, args); again != first {
				t.Fatalf("%s: second call %+v, first %+v", fn.Name, again, first)
			}
			var wg sync.WaitGroup
			var par [2]fuzzOutcome
			for g := range par {
				wg.Add(1)
				go func() {
					defer wg.Done()
					par[g] = fuzzCall(prog, fn.Name, args)
				}()
			}
			wg.Wait()
			if par[0] != first || par[1] != first {
				t.Fatalf("%s: concurrent calls %+v and %+v, serial %+v", fn.Name, par[0], par[1], first)
			}
		}
	})
}
