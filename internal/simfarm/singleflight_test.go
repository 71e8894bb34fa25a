package simfarm

import (
	"sync"
	"testing"
	"time"

	"llm4eda/internal/verilog"
)

// TestSingleflightDedupesConcurrentMisses pins the in-flight dedup
// contract: N goroutines requesting the same cold (design, options) pair
// trigger exactly one elaboration and one simulation; the other N-1 wait
// for the leader instead of recomputing (the seed farm's documented race
// burned one duplicate compute per concurrently-missing worker).
func TestSingleflightDedupesConcurrentMisses(t *testing.T) {
	f := New()
	dut := tinyDUT(4242)
	const n = 16

	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate // maximize the same-window collision the seed raced on
			res, err := f.RunTestbench(dut, tinyTB, "tb", verilog.SimOptions{})
			if err != nil {
				errs <- err
				return
			}
			if !res.Passed() {
				errs <- err
			}
		}()
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent run failed: %v", err)
	}

	s := f.Stats()
	if s.Designs.Computes != 1 {
		t.Errorf("design computed %d times for %d identical requests, want 1", s.Designs.Computes, n)
	}
	if s.Results.Computes != 1 {
		t.Errorf("result computed %d times for %d identical requests, want 1", s.Results.Computes, n)
	}
}

// TestConcurrentParseComputesOnce: N goroutines parsing one source
// through a fresh farm parse it once and count one miss.
func TestConcurrentParseComputesOnce(t *testing.T) {
	f := New()
	src := tinyDUT(77)
	const n = 16
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			if _, err := f.parse(src); err != nil {
				t.Errorf("parse: %v", err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	s := f.Stats()
	want := Stats{Hits: n - 1, Misses: 1, Computes: 1, Len: 1}
	if s.Parses != want {
		t.Errorf("parse layer %+v, want %+v", s.Parses, want)
	}
}

// TestSingleflightDistinctKeysDoNotBlock sanity-checks that dedup is
// per-key: distinct designs all compute.
func TestSingleflightDistinctKeysDoNotBlock(t *testing.T) {
	f := New()
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := f.RunTestbench(tinyDUT(i), tinyTB, "tb", verilog.SimOptions{}); err != nil {
				t.Errorf("job %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	s := f.Stats()
	if s.Designs.Computes != n || s.Results.Computes != n {
		t.Errorf("distinct keys: designs %d results %d computes, want %d each",
			s.Designs.Computes, s.Results.Computes, n)
	}
}

// TestSingleflightPanickingComputeUnblocksFollowers pins the unwind
// contract: a compute that panics must still close its flight and clear
// the entry, so followers waiting on the same key retry instead of
// blocking forever once someone recovers around the leader.
func TestSingleflightPanickingComputeUnblocksFollowers(t *testing.T) {
	c := newLRU[string, string](4)
	inFlight := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader: expected compute panic to propagate")
			}
		}()
		c.getOrCompute("k", func() string {
			close(inFlight)
			<-release
			panic("boom")
		})
	}()
	<-inFlight

	got := make(chan string, 1)
	go func() {
		got <- c.getOrCompute("k", func() string { return "fallback" })
	}()
	// Give the follower time to join the flight, then detonate the
	// leader. If the follower had not joined yet it simply becomes the
	// new leader and computes "fallback" itself — either way the test
	// only fails if a follower stays blocked.
	time.Sleep(10 * time.Millisecond)
	close(release)

	select {
	case v := <-got:
		if v != "fallback" {
			t.Errorf("follower got %v, want fallback", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower deadlocked after leader panic")
	}
	if v := c.getOrCompute("k", func() string { return "recomputed" }); v != "fallback" {
		t.Errorf("cache holds %v after retry, want fallback", v)
	}
}
