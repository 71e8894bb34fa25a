package hls

import (
	"context"
	"testing"
	"testing/quick"

	"llm4eda/internal/chdl"
)

// TestCoSimEquivalenceProperty is the substrate-level soundness property
// behind the whole Fig. 2/3 pipeline: for kernels in the agreeing domain
// (non-negative values, no 32-bit overflow), the generated RTL computes
// exactly what the C interpreter computes, across randomized inputs.
func TestCoSimEquivalenceProperty(t *testing.T) {
	src := `
int kern(int a, int b) {
    int acc = 0;
    int buf[8];
    for (int i = 0; i < 8; i++) {
        buf[i] = (a + i * 3) % 97;
    }
    for (int i = 0; i < 8; i++) {
        if (buf[i] > b % 97) {
            acc = acc + buf[i];
        } else {
            acc = acc + 1;
        }
    }
    return acc;
}`
	prog, err := chdl.ParseC(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := Synthesize(prog, "kern", Options{})
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	check := func(a, b uint16) bool {
		res, err := CoSimulate(context.Background(), d, prog, "kern", [][]int64{{int64(a), int64(b)}})
		if err != nil || len(res) != 1 {
			return false
		}
		return res[0].Match
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestLatencyEstimateTracksMeasured verifies the analytic latency model is
// within a reasonable factor of the cycle count the RTL actually takes.
func TestLatencyEstimateTracksMeasured(t *testing.T) {
	src := `
int walk(int a) {
    int acc = 0;
    for (int i = 0; i < 16; i++) {
        acc = acc + a * i;
    }
    return acc;
}`
	prog, err := chdl.ParseC(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := Synthesize(prog, "walk", Options{})
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	res, err := CoSimulate(context.Background(), d, prog, "walk", [][]int64{{5}})
	if err != nil || !res[0].Match {
		t.Fatalf("cosim: %v %+v", err, res)
	}
	est := float64(d.PPA.LatencyCyc)
	meas := float64(res[0].Cycles)
	if est < meas/3 || est > meas*3 {
		t.Errorf("latency estimate %v vs measured %v: off by more than 3x", est, meas)
	}
}
