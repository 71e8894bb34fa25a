package obs

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramPercentileProperty checks the factor-2 error contract:
// for random sample sets drawn from several shapes, every extracted
// quantile must land in the same log bucket as the exact sorted-order
// statistic, i.e. within a factor of 2 (and within the 1µs floor for
// sub-microsecond exact values).
func TestHistogramPercentileProperty(t *testing.T) {
	shapes := map[string]func(r *rand.Rand) time.Duration{
		"uniform": func(r *rand.Rand) time.Duration {
			return time.Duration(r.Int63n(int64(10 * time.Millisecond)))
		},
		"exponential": func(r *rand.Rand) time.Duration {
			return time.Duration(r.ExpFloat64() * float64(500*time.Microsecond))
		},
		"heavy-tail": func(r *rand.Rand) time.Duration {
			// Mostly fast, occasionally ~1000x slower: the shape a
			// cache-heavy job mix actually produces.
			if r.Intn(20) == 0 {
				return time.Duration(r.Int63n(int64(2 * time.Second)))
			}
			return time.Duration(r.Int63n(int64(300 * time.Microsecond)))
		},
		"sub-microsecond": func(r *rand.Rand) time.Duration {
			return time.Duration(r.Int63n(int64(5 * time.Microsecond)))
		},
	}
	for name, draw := range shapes {
		for _, n := range []int{10, 137, 5000} {
			r := rand.New(rand.NewSource(int64(n) * 7919))
			h := newHistogram()
			samples := make([]time.Duration, n)
			for i := range samples {
				samples[i] = draw(r)
				h.Record(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
				rank := int(math.Ceil(q * float64(n)))
				if rank < 1 {
					rank = 1
				}
				exact := samples[rank-1]
				got := h.Quantile(q)
				if exact < time.Microsecond {
					if got > time.Microsecond {
						t.Errorf("%s n=%d q=%g: exact %v sub-µs but estimate %v above the underflow bucket", name, n, q, exact, got)
					}
					continue
				}
				if got < exact/2 || got > exact*2 {
					t.Errorf("%s n=%d q=%g: estimate %v outside factor-2 of exact %v", name, n, q, got, exact)
				}
			}
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var nilH *Histogram
	nilH.Record(time.Second) // must not panic
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v, want 0", got)
	}
	h := newHistogram()
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	h.Record(-time.Second) // clamps to 0
	if h.Count() != 1 || h.Sum() != 0 {
		t.Errorf("negative record: count=%d sum=%v, want 1, 0", h.Count(), h.Sum())
	}
	// Overflow: far beyond the last bucket must still land somewhere sane.
	h2 := newHistogram()
	h2.Record(365 * 24 * time.Hour)
	if got := h2.Quantile(1); got < time.Hour {
		t.Errorf("overflow quantile = %v, want >= 1h", got)
	}
}

func TestRegistryIdentityAndExpose(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("phase_seconds", "Phase latency.", "phase", "sim")
	h2 := r.Histogram("phase_seconds", "Phase latency.", "phase", "sim")
	if h1 != h2 {
		t.Fatal("same (name, labels) returned distinct histograms")
	}
	h1.Record(2 * time.Millisecond)
	h1.Record(4 * time.Millisecond)
	r.Histogram("phase_seconds", "Phase latency.", "phase", "compile").Record(time.Millisecond)
	r.Histogram("job_seconds", "Job latency.").Record(time.Millisecond)

	var b strings.Builder
	r.Expose(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP phase_seconds Phase latency.\n# TYPE phase_seconds summary\n",
		`phase_seconds{phase="sim",quantile="0.5"}`,
		`phase_seconds{phase="sim",quantile="0.99"}`,
		`phase_seconds_count{phase="sim"} 2`,
		`phase_seconds_count{phase="compile"} 1`,
		"# TYPE job_seconds summary",
		"job_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Label sets render in sorted order, families in registration order.
	compile := strings.Index(out, `{phase="compile"`)
	sim := strings.Index(out, `{phase="sim"`)
	job := strings.Index(out, "job_seconds")
	if compile > sim || sim > job {
		t.Errorf("exposition out of order:\n%s", out)
	}
	// Sum in seconds: 6ms → 0.006.
	if !strings.Contains(out, `phase_seconds_sum{phase="sim"} 0.006`) {
		t.Errorf("exposition sum not in seconds:\n%s", out)
	}
}

func TestWriteFamilyEscaping(t *testing.T) {
	var b strings.Builder
	WriteFamily(&b, "faults_total", `Faults "fired".`+"\nsecond line", KindCounter,
		Sample{Labels: []string{"point", `a"b\c` + "\n"}, Value: 2})
	out := b.String()
	if !strings.Contains(out, `# HELP faults_total Faults "fired".\nsecond line`) {
		t.Errorf("help not escaped: %q", out)
	}
	if !strings.Contains(out, `faults_total{point="a\"b\\c\n"} 2`) {
		t.Errorf("label not escaped: %q", out)
	}
}

func TestNilRegistryAndMetrics(t *testing.T) {
	var r *Registry
	r.Histogram("c", "C.").Record(time.Second)
	var b strings.Builder
	r.Expose(&b)
	if b.Len() != 0 {
		t.Errorf("nil registry exposed %q", b.String())
	}
}

func TestSpansSeededAndAccumulating(t *testing.T) {
	s := NewSpans(JobPhases()...)
	s.Record(PhaseSim, 2*time.Millisecond)
	s.Record(PhaseSim, 3*time.Millisecond) // per-round calls accumulate
	s.Record("custom", time.Millisecond)   // extras append after seeds
	snap := s.Snapshot()
	if len(snap) != len(JobPhases())+1 {
		t.Fatalf("snapshot has %d rows, want %d", len(snap), len(JobPhases())+1)
	}
	for i, p := range JobPhases() {
		if snap[i].Phase != p {
			t.Errorf("row %d = %s, want %s (seeded order)", i, snap[i].Phase, p)
		}
	}
	if got := s.Get(PhaseSim); got.Dur != 5*time.Millisecond || got.N != 2 {
		t.Errorf("sim span = %+v, want 5ms over 2 recordings", got)
	}
	if got := s.Get(PhaseLintScreen); got.Dur != 0 || got.N != 0 {
		t.Errorf("unrecorded seeded span = %+v, want zero row", got)
	}
	if snap[len(snap)-1].Phase != "custom" {
		t.Errorf("extra phase not appended last: %+v", snap)
	}
}

func TestSpansContextAndNil(t *testing.T) {
	if SpansOf(context.Background()) != nil {
		t.Fatal("empty context carries spans")
	}
	s := NewSpans(PhaseSim)
	ctx := WithSpans(context.Background(), s)
	if SpansOf(ctx) != s {
		t.Fatal("WithSpans/SpansOf roundtrip failed")
	}
	if WithSpans(context.Background(), nil) != context.Background() {
		t.Fatal("WithSpans(nil) should be a no-op")
	}
	var nilS *Spans
	nilS.Record(PhaseSim, time.Second)
	nilS.Since(PhaseSim, time.Now())
	if nilS.Snapshot() != nil {
		t.Fatal("nil spans snapshot not nil")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "L.")
	s := NewSpans(PhaseSim)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(i) * time.Microsecond)
				s.Record(PhaseSim, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("hist=%d, want 8000", h.Count())
	}
	if sp := s.Get(PhaseSim); sp.N != 8000 {
		t.Errorf("span n=%d, want 8000", sp.N)
	}
}
