package simfarm

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"llm4eda/internal/verilog"
)

// tinyDUT builds a one-gate inverter whose source text is unique per tag,
// so tests can mint arbitrarily many distinct cache identities.
func tinyDUT(tag int) string {
	return fmt.Sprintf("// candidate %d\nmodule inv(input a, output y);\n  assign y = ~a;\nendmodule\n", tag)
}

const tinyTB = `module tb;
  reg a; wire y;
  inv dut(.a(a), .y(y));
  initial begin
    a = 0; #1; $check_eq(y, 1);
    a = 1; #1; $check_eq(y, 0);
    $finish;
  end
endmodule
`

func TestRunTestbenchPasses(t *testing.T) {
	f := New()
	res, err := f.RunTestbench(tinyDUT(0), tinyTB, "tb", verilog.SimOptions{})
	if err != nil {
		t.Fatalf("RunTestbench: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("inverter bench failed: %+v", res)
	}
}

func TestCacheHitMissAndResultMemo(t *testing.T) {
	f := New()
	dut := tinyDUT(1)
	r1, err := f.RunTestbench(dut, tinyTB, "tb", verilog.SimOptions{})
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	s := f.Stats()
	if s.Parses.Misses != 2 || s.Parses.Hits != 0 {
		t.Errorf("after cold run: parse stats %+v", s.Parses)
	}
	if s.Designs.Misses != 1 || s.Results.Misses != 1 {
		t.Errorf("after cold run: designs %+v results %+v", s.Designs, s.Results)
	}

	r2, err := f.RunTestbench(dut, tinyTB, "tb", verilog.SimOptions{})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if r2 != r1 {
		t.Error("identical job did not hit the result cache")
	}
	s = f.Stats()
	if s.Results.Hits != 1 {
		t.Errorf("result cache not hit: %+v", s.Results)
	}

	// A new candidate against the same bench re-parses only the candidate.
	if _, err := f.RunTestbench(tinyDUT(2), tinyTB, "tb", verilog.SimOptions{}); err != nil {
		t.Fatalf("third run: %v", err)
	}
	s = f.Stats()
	if s.Parses.Hits != 1 { // the shared bench
		t.Errorf("bench parse not reused: %+v", s.Parses)
	}
	if s.Parses.Misses != 3 { // two DUTs + bench
		t.Errorf("unexpected parse misses: %+v", s.Parses)
	}
}

// TestEqualTextsShareOneEntry: the layers key by text, not by string
// identity, so a second request built from distinct copies of the same
// sources is served from the first one's entries.
func TestEqualTextsShareOneEntry(t *testing.T) {
	f := New()
	dut := tinyDUT(5)
	r1, err := f.RunTestbench(dut, tinyTB, "tb", verilog.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.RunTestbench(strings.Clone(dut), strings.Clone(tinyTB), strings.Clone("tb"), verilog.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 {
		t.Error("cloned sources did not share the first run's result")
	}
	one := Stats{Hits: 1, Misses: 1, Computes: 1, Len: 1}
	if s := f.Stats(); s.Designs != one || s.Results != one {
		t.Errorf("designs %+v results %+v, want %+v each", s.Designs, s.Results, one)
	}

	const src = `int y(int a) { return a + 1; }`
	p1, _ := f.ParseC(src)
	if p2, _ := f.ParseC(strings.Clone(src)); p2 != p1 {
		t.Error("cloned C source did not share the first parse")
	}
	if s := f.Stats().CParses; s != one {
		t.Errorf("cparse %+v, want %+v", s, one)
	}
}

// TestSourceBoundaryIsPartOfTheKey: the same characters split
// differently between DUT and bench are two designs, because module
// lookup and error attribution depend on which file holds what.
func TestSourceBoundaryIsPartOfTheKey(t *testing.T) {
	f := New()
	a, b := tinyDUT(6), "// between\n"
	for _, srcs := range [][2]string{{a + b, tinyTB}, {a, b + tinyTB}} {
		res, err := f.RunTestbench(srcs[0], srcs[1], "tb", verilog.SimOptions{})
		if err != nil || !res.Passed() {
			t.Fatalf("run: %v %+v", err, res)
		}
	}
	if s := f.Stats().Designs; s.Computes != 2 || s.Hits != 0 {
		t.Errorf("design layer %+v, want two computes and no hit", s)
	}
}

func TestCompileErrorIsCached(t *testing.T) {
	f := New()
	broken := "module inv(input a output y); endmodule" // missing comma
	_, err1 := f.RunTestbench(broken, tinyTB, "tb", verilog.SimOptions{})
	_, err2 := f.RunTestbench(broken, tinyTB, "tb", verilog.SimOptions{})
	if err1 == nil || err2 == nil {
		t.Fatal("broken source compiled")
	}
	if err1.Error() != err2.Error() {
		t.Errorf("cached error differs: %v vs %v", err1, err2)
	}
	if s := f.Stats(); s.Designs.Hits != 1 {
		t.Errorf("compile error not served from cache: %+v", s.Designs)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU[string, string](2)
	// cached reports whether key was still cached: a cached probe never
	// runs its compute.
	cached := func(key string) bool {
		hit := true
		c.getOrCompute(key, func() string { hit = false; return key })
		return hit
	}
	cached("a")
	cached("b")
	if !cached("a") { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	cached("c")
	if !cached("a") {
		t.Error("a evicted despite refresh")
	}
	if !cached("c") {
		t.Error("c missing")
	}
	if cached("b") {
		t.Error("b should have been evicted")
	}
	if s := c.snapshot(); s.Evictions != 2 || s.Len != 2 {
		t.Errorf("stats %+v", s)
	}
}

// TestConcurrentFarm hammers one farm from many goroutines with
// overlapping jobs; run under -race this is the concurrency safety net
// for the whole cache hierarchy.
func TestConcurrentFarm(t *testing.T) {
	// Tiny layers force evictions.
	f := &Farm{
		parses:  newLRU[string, parseResult](8),
		designs: newLRU[designKey, designResult](4),
		results: newLRU[resultKey, simResult](4),
		lints:   newLRU[lintKey, lintOutcome](8),
		cparses: newLRU[string, cParseResult](4),
	}
	const goroutines = 16
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := f.RunTestbench(tinyDUT((g+i)%6), tinyTB, "tb", verilog.SimOptions{})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !res.Passed() {
					errs <- fmt.Errorf("goroutine %d: run failed", g)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := f.Stats()
	if s.Results.Evictions == 0 || s.Designs.Evictions == 0 {
		t.Errorf("tiny caches never evicted: designs %+v results %+v", s.Designs, s.Results)
	}
}

// TestRunManyMatchesSerial is the determinism contract: a parallel batch
// must be bit-identical to the serial, cache-cold loop.
func TestRunManyMatchesSerial(t *testing.T) {
	var jobs []Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, Job{
			DUT: tinyDUT(i % 5), // includes duplicates
			TB:  tinyTB, Top: "tb",
			Opts: verilog.SimOptions{Seed: uint64(i % 3)},
		})
	}
	// Ground truth: fresh compile + run per job, no caching, no pool.
	want := make([]Result, len(jobs))
	for i, j := range jobs {
		cd, err := verilog.CompileSources(j.Top, j.DUT, j.TB)
		if err != nil {
			want[i] = Result{Err: err}
			continue
		}
		res, err := cd.Run(j.Opts)
		want[i] = Result{Res: res, Err: err}
	}

	got := New().RunMany(jobs, 4)
	if len(got) != len(want) {
		t.Fatalf("got %d results", len(got))
	}
	for i := range got {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("job %d error mismatch: %v vs %v", i, got[i].Err, want[i].Err)
		}
		g, w := got[i].Res, want[i].Res
		if g.Output != w.Output || g.Checks != w.Checks || g.Failures != w.Failures ||
			g.Finished != w.Finished || g.TimedOut != w.TimedOut || g.EndTime != w.EndTime {
			t.Errorf("job %d diverged: %+v vs %+v", i, g, w)
		}
		if !reflect.DeepEqual(g.Final, w.Final) {
			t.Errorf("job %d final signals diverged", i)
		}
	}
}

func TestRunManyEmptyAndWorkerClamp(t *testing.T) {
	if got := New().RunMany(nil, 4); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
	// More workers than jobs must not deadlock or drop results.
	jobs := []Job{{DUT: tinyDUT(0), TB: tinyTB, Top: "tb"}}
	got := New().RunMany(jobs, 64)
	if len(got) != 1 || !got[0].Passed() {
		t.Errorf("single-job batch broken: %+v", got)
	}
}

func TestMapCoversEveryIndexOnce(t *testing.T) {
	const n = 100
	counts := make([]int32, n)
	var mu sync.Mutex
	if err := MapCtx(context.Background(), n, 7, func(i int) {
		mu.Lock()
		counts[i]++
		mu.Unlock()
	}); err != nil {
		t.Fatalf("MapCtx: %v", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	if err := MapCtx(context.Background(), 0, 3, func(int) { t.Error("fn called for n=0") }); err != nil {
		t.Fatalf("MapCtx(n=0): %v", err)
	}
}
