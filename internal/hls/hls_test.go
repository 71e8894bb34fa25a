package hls

import (
	"context"
	"errors"
	"strings"
	"testing"

	"llm4eda/internal/chdl"
)

func parse(t *testing.T, src string) *chdl.Program {
	t.Helper()
	p, err := chdl.ParseC(src)
	if err != nil {
		t.Fatalf("ParseC: %v", err)
	}
	return p
}

func TestSynthesizeSimpleKernel(t *testing.T) {
	src := `
int scale(int a, int b) {
    int acc = 0;
    for (int i = 0; i < 8; i++) {
        acc = acc + a * i + b;
    }
    return acc;
}`
	prog := parse(t, src)
	d, err := Synthesize(prog, "scale", Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !strings.Contains(d.Verilog, "module hls_scale") {
		t.Fatalf("bad module:\n%s", d.Verilog)
	}
	results, err := CoSimulate(context.Background(), d, prog, "scale", [][]int64{{3, 4}, {10, 2}, {0, 0}, {7, 9}})
	if err != nil {
		t.Fatalf("CoSimulate: %v", err)
	}
	for _, r := range results {
		if !r.Match {
			t.Errorf("mismatch for %v: cpu=%d rtl=%d (valid=%v)", r.Inputs, r.CPU, r.RTL, r.RTLValid)
		}
		if r.Cycles == 0 {
			t.Errorf("no cycle count for %v", r.Inputs)
		}
	}
}

func TestSynthesizeArrayKernel(t *testing.T) {
	src := `
int movavg(int seed) {
    int buf[16];
    for (int i = 0; i < 16; i++) {
        buf[i] = (seed + i * 7) % 100;
    }
    int acc = 0;
    for (int i = 0; i < 16; i++) {
        acc = acc + buf[i];
    }
    return acc / 16;
}`
	prog := parse(t, src)
	d, err := Synthesize(prog, "movavg", Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	results, err := CoSimulate(context.Background(), d, prog, "movavg", [][]int64{{1}, {42}, {99}})
	if err != nil {
		t.Fatalf("CoSimulate: %v", err)
	}
	for _, r := range results {
		if !r.Match {
			t.Errorf("mismatch for %v: cpu=%d rtl=%d", r.Inputs, r.CPU, r.RTL)
		}
	}
}

func TestSynthesizeConditionals(t *testing.T) {
	src := `
int clampsum(int a, int b) {
    int s = a + b;
    if (s > 1000) {
        s = 1000;
    } else if (s < 0) {
        s = 0;
    }
    return s;
}`
	prog := parse(t, src)
	d, err := Synthesize(prog, "clampsum", Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	// Note: RTL comparisons are unsigned; keep the domain non-negative so
	// CPU and RTL agree (negative-domain divergence is the Fig. 3 topic).
	results, err := CoSimulate(context.Background(), d, prog, "clampsum", [][]int64{{500, 400}, {900, 200}, {0, 0}, {1, 2}})
	if err != nil {
		t.Fatalf("CoSimulate: %v", err)
	}
	for _, r := range results {
		if !r.Match {
			t.Errorf("mismatch for %v: cpu=%d rtl=%d", r.Inputs, r.CPU, r.RTL)
		}
	}
}

func TestRejectsMalloc(t *testing.T) {
	src := `
int bad(int n) {
    int *p = (int*)malloc(n);
    p[0] = 1;
    int r = p[0];
    free(p);
    return r;
}`
	prog := parse(t, src)
	_, err := Synthesize(prog, "bad", Options{})
	if !errors.Is(err, ErrNotSynthesizable) {
		t.Fatalf("expected ErrNotSynthesizable, got %v", err)
	}
	if !strings.Contains(err.Error(), "dynamic-memory") {
		t.Errorf("diagnostics missing: %v", err)
	}
}

func TestRejectsWhileLoop(t *testing.T) {
	src := `
int spin(int n) {
    while (n > 1) { n = n - 1; }
    return n;
}`
	prog := parse(t, src)
	_, err := Synthesize(prog, "spin", Options{})
	if !errors.Is(err, ErrNotSynthesizable) {
		t.Fatalf("expected ErrNotSynthesizable, got %v", err)
	}
}

func TestNarrowWidthCausesOverflowDiscrepancy(t *testing.T) {
	// With a 16-bit datapath, products overflow differently than 32-bit C:
	// exactly the Fig. 3 discrepancy class.
	src := `
int prodsum(int a) {
    int acc = 0;
    for (int i = 1; i <= 4; i++) {
        acc = acc + a * i;
    }
    return acc;
}`
	prog := parse(t, src)
	d, err := Synthesize(prog, "prodsum", Options{WidthBits: 16})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	small, err := CoSimulate(context.Background(), d, prog, "prodsum", [][]int64{{3}})
	if err != nil || !small[0].Match {
		t.Fatalf("small input should match: %+v err=%v", small, err)
	}
	big, err := CoSimulate(context.Background(), d, prog, "prodsum", [][]int64{{50000}})
	if err != nil {
		t.Fatalf("CoSimulate: %v", err)
	}
	if big[0].Match {
		t.Errorf("expected overflow discrepancy at 16 bits, got match: %+v", big[0])
	}
}

func TestPPAPragmaSensitivity(t *testing.T) {
	base := `
int dot(int a, int b) {
    int x[32];
    int y[32];
    for (int i = 0; i < 32; i++) {
        x[i] = a + i;
    }
    for (int i = 0; i < 32; i++) {
        y[i] = b - i;
    }
    int acc = 0;
    for (int i = 0; i < 32; i++) {
        acc = acc + x[i] * y[i];
    }
    return acc;
}`
	pragma := strings.Replace(base,
		"    int acc = 0;\n    for (int i = 0; i < 32; i++) {\n        acc = acc + x[i] * y[i];\n    }",
		"    int acc = 0;\n    for (int i = 0; i < 32; i++) {\n#pragma HLS pipeline II=1\n#pragma HLS unroll factor=4\n        acc = acc + x[i] * y[i];\n    }", 1)
	dBase, err := Synthesize(parse(t, base), "dot", Options{})
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	dOpt, err := Synthesize(parse(t, pragma), "dot", Options{})
	if err != nil {
		t.Fatalf("pragma: %v", err)
	}
	if dOpt.PPA.LatencyCyc >= dBase.PPA.LatencyCyc {
		t.Errorf("pipelined latency %d >= base %d", dOpt.PPA.LatencyCyc, dBase.PPA.LatencyCyc)
	}
	if dOpt.PPA.AreaGates <= dBase.PPA.AreaGates {
		t.Errorf("unrolled area %.0f <= base %.0f", dOpt.PPA.AreaGates, dBase.PPA.AreaGates)
	}
}

func TestDiagnosticsFormat(t *testing.T) {
	diags := Diagnostics(`
int f(int *p) {
    int *q = (int*)malloc(4);
    free(q);
    return p[0];
}`)
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	joined := strings.Join(diags, "\n")
	if !strings.Contains(joined, "dynamic-memory") {
		t.Errorf("missing malloc diagnostic: %s", joined)
	}
	if bad := Diagnostics("not c at all {{{"); len(bad) != 1 || !strings.Contains(bad[0], "hls frontend") {
		t.Errorf("parse failure diagnostics wrong: %v", bad)
	}
}

func TestBreakInLoop(t *testing.T) {
	src := `
int findfirst(int target) {
    int buf[16];
    for (int i = 0; i < 16; i++) {
        buf[i] = i * 3;
    }
    int found = 99;
    for (int i = 0; i < 16; i++) {
        if (buf[i] == target) {
            found = i;
            break;
        }
    }
    return found;
}`
	prog := parse(t, src)
	d, err := Synthesize(prog, "findfirst", Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	results, err := CoSimulate(context.Background(), d, prog, "findfirst", [][]int64{{9}, {0}, {45}, {44}})
	if err != nil {
		t.Fatalf("CoSimulate: %v", err)
	}
	for _, r := range results {
		if !r.Match {
			t.Errorf("mismatch for %v: cpu=%d rtl=%d valid=%v", r.Inputs, r.CPU, r.RTL, r.RTLValid)
		}
	}
}

func TestGlobalArrayKernel(t *testing.T) {
	src := `
int lut[8] = {1, 2, 4, 8, 16, 32, 64, 128};
int lookup(int i) {
    return lut[i % 8] + i;
}`
	prog := parse(t, src)
	d, err := Synthesize(prog, "lookup", Options{})
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	results, err := CoSimulate(context.Background(), d, prog, "lookup", [][]int64{{0}, {3}, {7}, {12}})
	if err != nil {
		t.Fatalf("CoSimulate: %v", err)
	}
	for _, r := range results {
		if !r.Match {
			t.Errorf("mismatch for %v: cpu=%d rtl=%d", r.Inputs, r.CPU, r.RTL)
		}
	}
}
