package simfarm

import (
	"reflect"
	"sync/atomic"
	"testing"

	"llm4eda/internal/verilog"
)

// TestStatsConcurrentWithRunMany hammers Stats() from several goroutines
// while RunMany drives a batch through every cache layer — the exact load
// shape of the edaserver /v1/stats handler polling the shared farm under
// traffic. The race detector (make test-race covers this package) is the
// real assertion; the monotonicity checks pin that lock-free snapshots
// still read sane counter values mid-flight.
func TestStatsConcurrentWithRunMany(t *testing.T) {
	f := New()
	var stop atomic.Bool
	const pollers = 4
	done := make(chan struct{}, pollers)
	for w := 0; w < pollers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			var last FarmStats
			for !stop.Load() {
				s := f.Stats()
				// Counters only grow; Len never goes negative.
				if s.Results.Hits < last.Results.Hits || s.Results.Misses < last.Results.Misses ||
					s.Designs.Computes < last.Designs.Computes {
					t.Errorf("counters went backwards: %+v after %+v", s, last)
					return
				}
				if s.Parses.Len < 0 || s.Designs.Len < 0 || s.Results.Len < 0 {
					t.Errorf("negative cache length: %+v", s)
					return
				}
				last = s
			}
		}()
	}

	// 64 jobs over 16 distinct candidates: plenty of concurrent hits,
	// misses and singleflight computes on every layer.
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = Job{DUT: tinyDUT(i % 16), TB: tinyTB, Top: "tb"}
	}
	results := f.RunMany(jobs, 8)
	stop.Store(true)
	for w := 0; w < pollers; w++ {
		<-done
	}

	for i, r := range results {
		if !r.Passed() {
			t.Fatalf("job %d failed: %+v", i, r)
		}
	}
	s := f.Stats()
	if s.Results.Computes != 16 {
		t.Errorf("result computes = %d, want 16 (one per distinct candidate)", s.Results.Computes)
	}
	if s.Results.Hits+s.Results.Misses == 0 {
		t.Error("no result-cache traffic recorded")
	}
	if got := s.Results.Len; got != 16 {
		t.Errorf("result cache len = %d, want 16", got)
	}
}

// TestRunManyCountersRepeat runs one batch with duplicate candidates on 8
// workers through 20 fresh farms. A lookup that joins another worker's
// in-flight compute counts as a hit, so every farm reports the same
// counters, each layer's misses are its distinct keys, and misses equal
// computes.
func TestRunManyCountersRepeat(t *testing.T) {
	// 32 jobs over 6 candidates × 4 seeds (12 distinct runs), linted,
	// against one bench.
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = Job{DUT: tinyDUT(i % 6), TB: tinyTB, Top: "tb", DUTTop: "inv", Lint: true,
			Opts: verilog.SimOptions{Seed: uint64(i % 4)}}
	}
	// Probes per layer: one design, result and lint probe per job; two
	// parse probes per design compute and one per lint compute; a hash
	// probe per source in each Compile, per lint key and per parse.
	want := []LayerStats{
		{"parse", Stats{Hits: 18 - 7, Misses: 7, Computes: 7, Len: 7}},
		{"design", Stats{Hits: 32 - 6, Misses: 6, Computes: 6, Len: 6}},
		{"result", Stats{Hits: 32 - 12, Misses: 12, Computes: 12, Len: 12}},
		{"lint", Stats{Hits: 32 - 6, Misses: 6, Computes: 6, Len: 6}},
		{"hash", Stats{Hits: 64 + 32 + 18 - 7, Misses: 7, Computes: 7, Len: 7}},
	}
	for run := 0; run < 20; run++ {
		f := New()
		for i, r := range f.RunMany(jobs, 8) {
			if !r.Passed() {
				t.Fatalf("run %d job %d failed: %+v", run, i, r)
			}
		}
		if got := f.Stats().Layers(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d counters:\n got %+v\nwant %+v", run, got, want)
		}
	}
}
