package boom

import (
	"errors"
	"strings"
	"testing"

	"llm4eda/internal/chdl"
	"llm4eda/internal/isa"
)

func compileAndRun(t *testing.T, src string, opts RunOptions) *Result {
	t.Helper()
	cprog, err := chdl.ParseC(src)
	if err != nil {
		t.Fatalf("ParseC: %v", err)
	}
	p, err := isa.Compile(cprog, "main")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return Run(p, opts)
}

func TestFunctionalCorrectness(t *testing.T) {
	src := `
int main() {
    int acc = 0;
    for (int i = 1; i <= 100; i++) acc += i;
    return acc;
}`
	res := compileAndRun(t, src, RunOptions{})
	if !res.Halted || res.Trap != nil {
		t.Fatalf("halted=%v trap=%v", res.Halted, res.Trap)
	}
	if res.ReturnValue != 5050 {
		t.Errorf("return = %d, want 5050", res.ReturnValue)
	}
	if res.Cycles == 0 || res.Insts == 0 {
		t.Errorf("no timing recorded: %+v", res)
	}
}

func TestPowerInCalibratedBand(t *testing.T) {
	// A realistic mixed kernel should land in the paper's 4.2-5.7 W band.
	src := `
int main() {
    int a[256];
    int acc = 1;
    for (int i = 0; i < 256; i++) a[i] = i * 2654435761;
    for (int r = 0; r < 200; r++) {
        for (int i = 0; i < 256; i++) {
            acc += a[i] * (i | 1);
            acc ^= acc >> 3;
        }
    }
    return acc;
}`
	res := compileAndRun(t, src, RunOptions{})
	if res.Trap != nil {
		t.Fatalf("trap: %v", res.Trap)
	}
	if res.PowerW < 4.2 || res.PowerW > 6.2 {
		t.Errorf("power %.3f W outside calibration band [4.2, 6.2]", res.PowerW)
	}
}

func TestIdleLoopLowerPowerThanDenseCode(t *testing.T) {
	// Serial dependence chain with divisions: low IPC, low power.
	idle := `
int main() {
    int x = 1000000;
    for (int i = 0; i < 30000; i++) x = x / 3 + 1;
    return x;
}`
	// Independent ALU/MUL mix: high IPC, high power.
	dense := `
int main() {
    int a = 1, b = 2, c = 3, d = 4;
    for (int i = 0; i < 30000; i++) {
        a = a * 17 + i;
        b = b ^ (i << 2);
        c = c + (i | 5);
        d = d - (i & 31);
    }
    return a + b + c + d;
}`
	ri := compileAndRun(t, idle, RunOptions{})
	rd := compileAndRun(t, dense, RunOptions{})
	if ri.Trap != nil || rd.Trap != nil {
		t.Fatalf("traps: %v %v", ri.Trap, rd.Trap)
	}
	if ri.PowerW >= rd.PowerW {
		t.Errorf("idle power %.3f >= dense power %.3f; landscape inverted", ri.PowerW, rd.PowerW)
	}
	if rd.IPC <= ri.IPC {
		t.Errorf("dense IPC %.2f <= idle IPC %.2f", rd.IPC, ri.IPC)
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	src := `
int main() {
    int acc = 0;
    for (int i = 0; i < 10000; i++) acc += i;
    return acc;
}`
	res := compileAndRun(t, src, RunOptions{})
	if res.Branches == 0 {
		t.Fatal("no branches recorded")
	}
	rate := float64(res.Mispredicts) / float64(res.Branches)
	if rate > 0.05 {
		t.Errorf("loop mispredict rate %.3f too high; gshare not learning", rate)
	}
}

func TestRandomBranchesMispredict(t *testing.T) {
	// Data-dependent unpredictable branches: mispredict rate well above
	// the loop case.
	src := `
int main() {
    int x = 123456789;
    int acc = 0;
    for (int i = 0; i < 20000; i++) {
        x = x * 1103515245 + 12345;
        if ((x >> 16) & 1) acc += 3;
        else acc -= 1;
    }
    return acc;
}`
	res := compileAndRun(t, src, RunOptions{})
	rate := float64(res.Mispredicts) / float64(res.Branches)
	if rate < 0.15 {
		t.Errorf("random-branch mispredict rate %.3f suspiciously low", rate)
	}
}

func TestCacheMissesOnLargeStride(t *testing.T) {
	small := `
int main() {
    int a[64];
    int acc = 0;
    for (int r = 0; r < 500; r++)
        for (int i = 0; i < 64; i++) acc += a[i];
    return acc;
}`
	// Large working set exceeding L1 capacity: misses dominate.
	large := `
int big[16384];
int main() {
    int acc = 0;
    for (int r = 0; r < 2; r++)
        for (int i = 0; i < 16384; i++) acc += big[i];
    return acc;
}`
	rs := compileAndRun(t, small, RunOptions{})
	rl := compileAndRun(t, large, RunOptions{})
	if rs.Trap != nil || rl.Trap != nil {
		t.Fatalf("traps: %v %v", rs.Trap, rl.Trap)
	}
	smallRate := float64(rs.CacheMisses) / float64(rs.CacheAccess+1)
	largeRate := float64(rl.CacheMisses) / float64(rl.CacheAccess+1)
	if largeRate <= smallRate {
		t.Errorf("large-stride miss rate %.3f <= small %.3f", largeRate, smallRate)
	}
}

func TestTrapOnBadAccessScoresAsTrap(t *testing.T) {
	src := `
int huge[1];
int main() {
    int acc = 0;
    for (int i = 0; i < 10; i++) acc += huge[i * 1000000000];
    return acc;
}`
	res := compileAndRun(t, src, RunOptions{})
	if res.Trap == nil || !errors.Is(res.Trap, ErrTrap) {
		t.Errorf("expected trap, got %+v", res)
	}
}

func TestMaxInstsTimeout(t *testing.T) {
	src := `int main() { int x = 0; while (1) { x++; } return x; }`
	res := compileAndRun(t, src, RunOptions{MaxInsts: 10000})
	if !res.TimedOut || res.Halted {
		t.Errorf("expected timeout, got %+v", res)
	}
}

func TestDivHeavyCodeSlowerThanALU(t *testing.T) {
	div := `
int main() {
    int x = 1 << 30;
    for (int i = 0; i < 5000; i++) x = x / 3 + 1000000;
    return x;
}`
	alu := `
int main() {
    int x = 1 << 30;
    for (int i = 0; i < 5000; i++) x = (x >> 2) + 1000000;
    return x;
}`
	rdv := compileAndRun(t, div, RunOptions{})
	ral := compileAndRun(t, alu, RunOptions{})
	if rdv.IPC >= ral.IPC {
		t.Errorf("div IPC %.2f >= alu IPC %.2f; unpipelined divider not modeled", rdv.IPC, ral.IPC)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
int main() {
    int acc = 0;
    for (int i = 0; i < 1000; i++) acc = acc * 31 + i;
    return acc;
}`
	a := compileAndRun(t, src, RunOptions{})
	b := compileAndRun(t, src, RunOptions{})
	if a.Cycles != b.Cycles || a.PowerW != b.PowerW || a.ReturnValue != b.ReturnValue {
		t.Errorf("nondeterministic results: %+v vs %+v", a, b)
	}
}

// TestRegisterOutOfRangeTraps: a program that names a register outside
// the register file traps before its first instruction, naming the
// register and the pc, where Run used to panic with an index out of
// range. The bad instruction need not be reached: here it follows the
// HALT.
func TestRegisterOutOfRangeTraps(t *testing.T) {
	for _, tc := range []struct {
		insts []isa.Inst
		want  string
	}{
		{[]isa.Inst{{Op: isa.OpAddi, Rd: 40, Imm: 1}, {Op: isa.OpHalt}}, "register x40 out of range at pc 0"},
		{[]isa.Inst{{Op: isa.OpHalt}, {Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 32}}, "register x32 out of range at pc 1"},
		{[]isa.Inst{{Op: isa.OpHalt, Rs1: -1}}, "register x-1 out of range at pc 0"},
	} {
		p := &isa.Program{Insts: tc.insts}
		for _, res := range []*Result{Run(p, RunOptions{}), refRun(p, RunOptions{})} {
			if !errors.Is(res.Trap, ErrTrap) || !strings.Contains(res.Trap.Error(), tc.want) {
				t.Errorf("%v: trap %v, want one wrapping ErrTrap with %q", tc.insts, res.Trap, tc.want)
			}
			if res.Halted || res.TimedOut || res.Insts != 0 || res.Cycles != 1 {
				t.Errorf("%v: halted %v, timed out %v, %d insts, %d cycles; want a trap before any instruction",
					tc.insts, res.Halted, res.TimedOut, res.Insts, res.Cycles)
			}
		}
	}
}
