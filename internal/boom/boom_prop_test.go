package boom

import (
	"testing"
	"testing/quick"

	"llm4eda/internal/chdl"
	"llm4eda/internal/isa"
)

// TestTimingInvariantsProperty checks structural invariants of the timing
// model across randomized programs: IPC never exceeds the commit width,
// the cycle count is at least insts/commitWidth, mispredicts never exceed
// branches, and cache misses never exceed accesses.
func TestTimingInvariantsProperty(t *testing.T) {
	render := func(mulW, addW, trips uint8) string {
		src := `
int main() {
    int a = 1;
    int b = 2;
    int c = 3;
    for (int r = 0; r < ` + itoa(int(trips)%200+20) + `; r++) {
        a = a * ` + itoa(int(mulW)%97+3) + ` + r;
        b = (b ^ r) + ` + itoa(int(addW)) + `;
        c = c + (a & 255);
    }
    return a + b + c;
}`
		return src
	}
	check := func(mulW, addW, trips uint8) bool {
		prog, err := chdl.ParseC(render(mulW, addW, trips))
		if err != nil {
			return false
		}
		compiled, err := isa.Compile(prog, "main")
		if err != nil {
			return false
		}
		res := Run(compiled, RunOptions{MaxInsts: 100_000})
		if res.Trap != nil {
			return false
		}
		if res.IPC > commitWidth+1e-9 {
			return false
		}
		if res.Cycles*commitWidth < res.Insts {
			return false
		}
		if res.Mispredicts > res.Branches {
			return false
		}
		if res.CacheMisses > res.CacheAccess {
			return false
		}
		return res.PowerW > staticW
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestMorePowerMoreWork: for the same program shape, more iterations must
// not change average power much (power is an intensity, not a total), while
// energy grows with work.
func TestPowerIsIntensityNotTotal(t *testing.T) {
	build := func(trips int) *isa.Program {
		src := `
int main() {
    int a = 1;
    for (int r = 0; r < ` + itoa(trips) + `; r++) {
        a = a * 31 + r;
    }
    return a;
}`
		prog, err := chdl.ParseC(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		compiled, err := isa.Compile(prog, "main")
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return compiled
	}
	short := Run(build(500), RunOptions{})
	long := Run(build(5000), RunOptions{})
	if long.EnergyJ <= short.EnergyJ {
		t.Errorf("energy did not grow with work: %g <= %g", long.EnergyJ, short.EnergyJ)
	}
	ratio := long.PowerW / short.PowerW
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("power drifted with run length: %.3f vs %.3f", short.PowerW, long.PowerW)
	}
}
