package simfarm

import (
	"sync"
	"testing"

	"llm4eda/internal/chdl"
)

// TestParseCShared: the C parse layer hands every caller one Program per
// distinct source, caches parse errors too, counts through the farm's
// probe like every other layer, and empties on Purge.
func TestParseCShared(t *testing.T) {
	f := New()
	const src = `int y(int a) { return a + 1; }`
	p1, err := f.ParseC(src)
	if err != nil {
		t.Fatal(err)
	}
	if p2, _ := f.ParseC(src); p2 != p1 {
		t.Error("second ParseC of one source returned a different Program")
	}
	_, e1 := f.ParseC("int (")
	_, e2 := f.ParseC("int (")
	if e1 == nil || e1 != e2 {
		t.Errorf("parse errors %v and %v, want one cached error", e1, e2)
	}
	if got, want := f.Stats().CParses, (Stats{Hits: 2, Misses: 2, Computes: 2, Len: 2}); got != want {
		t.Errorf("cparse layer %+v, want %+v", got, want)
	}
	f.Purge()
	if n := f.Stats().CParses.Len; n != 0 {
		t.Errorf("%d entries after Purge", n)
	}
	if p3, _ := f.ParseC(src); p3 == p1 {
		t.Error("ParseC after Purge returned the purged Program")
	}
}

// TestSharedProgramConcurrentInterp runs interpreters over one cached
// Program from many goroutines, each starting before any has resolved
// the Program; under -race this pins that a shared Program is only read.
func TestSharedProgramConcurrentInterp(t *testing.T) {
	f := New()
	const src = `
int table[4] = {3, 1, 4, 1};
int mix(int a, int b) {
    int acc = 0;
    for (int i = 0; i < 8; i++) {
        if ((a >> i) & 1) acc += table[i & 3] * b;
        else acc ^= i;
    }
    return acc;
}`
	var wg sync.WaitGroup
	got := make([]int64, 16)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, err := f.ParseC(src)
			if err != nil {
				t.Error(err)
				return
			}
			in, err := chdl.NewInterp(prog, chdl.InterpOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			in.TraceAll = true
			in.Trace = func(int, string, int64) {}
			got[g], err = in.CallInts("mix", 0xA5, 7)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for g, v := range got {
		if v != got[0] {
			t.Fatalf("goroutine %d got %d, goroutine 0 got %d", g, v, got[0])
		}
	}
	if st := f.Stats().CParses; st.Computes != 1 {
		t.Errorf("cparse computes = %d, want 1", st.Computes)
	}
}
