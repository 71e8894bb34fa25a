package isa

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"llm4eda/internal/chdl"
)

func compileC(t *testing.T, src, entry string) *Program {
	t.Helper()
	prog, err := chdl.ParseC(src)
	if err != nil {
		t.Fatalf("ParseC: %v", err)
	}
	p, err := Compile(prog, entry)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

// runISA is a minimal in-order functional executor used to validate the
// compiler independently of the boom timing model.
func runISA(t *testing.T, p *Program, maxSteps int) int32 {
	t.Helper()
	v, err := Interpret(p, maxSteps)
	if err != nil {
		t.Fatalf("Interpret: %v", err)
	}
	return v
}

func TestCompileArithmetic(t *testing.T) {
	src := `
int calc(int a, int b) {
    int x = a * b + 7;
    x = x ^ (a << 2);
    x = x - (b >> 1);
    return x;
}
int main() { return calc(9, 5); }`
	p := compileC(t, src, "main")
	want := func(a, b int32) int32 {
		x := a*b + 7
		x = x ^ (a << 2)
		x = x - (b >> 1)
		return x
	}(9, 5)
	if got := runISA(t, p, 100000); got != want {
		t.Errorf("calc = %d, want %d", got, want)
	}
}

func TestCompileLoopsAndArrays(t *testing.T) {
	src := `
int main() {
    int a[16];
    for (int i = 0; i < 16; i++) a[i] = i * i;
    int total = 0;
    for (int i = 0; i < 16; i++) total += a[i];
    return total;
}`
	p := compileC(t, src, "main")
	if got := runISA(t, p, 1000000); got != 1240 {
		t.Errorf("sum of squares = %d, want 1240", got)
	}
}

func TestCompileRecursion(t *testing.T) {
	src := `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }`
	p := compileC(t, src, "main")
	if got := runISA(t, p, 10_000_000); got != 144 {
		t.Errorf("fib(12) = %d, want 144", got)
	}
}

func TestCompileGlobals(t *testing.T) {
	src := `
int lut[4] = {3, 1, 4, 1};
int scale = 10;
int main() {
    int total = 0;
    for (int i = 0; i < 4; i++) total += lut[i] * scale;
    return total;
}`
	p := compileC(t, src, "main")
	if got := runISA(t, p, 100000); got != 90 {
		t.Errorf("globals = %d, want 90", got)
	}
}

func TestCompileShortCircuit(t *testing.T) {
	src := `
int main() {
    int hits = 0;
    for (int i = 0; i < 10; i++) {
        if (i > 2 && i < 7) hits++;
        if (i == 0 || i == 9) hits += 10;
    }
    return hits;
}`
	p := compileC(t, src, "main")
	if got := runISA(t, p, 100000); got != 24 {
		t.Errorf("short-circuit = %d, want 24", got)
	}
}

func TestCompileBreakContinue(t *testing.T) {
	src := `
int main() {
    int total = 0;
    for (int i = 0; i < 100; i++) {
        if (i % 2 == 0) continue;
        if (i > 10) break;
        total += i;
    }
    return total;
}`
	p := compileC(t, src, "main")
	if got := runISA(t, p, 100000); got != 1+3+5+7+9 {
		t.Errorf("break/continue = %d, want 25", got)
	}
}

func TestCompileWhileDo(t *testing.T) {
	src := `
int main() {
    int n = 100;
    int steps = 0;
    while (n > 1) {
        if (n % 2 == 0) n /= 2;
        else n = 3 * n + 1;
        steps++;
    }
    do { steps += 1000; } while (0);
    return steps;
}`
	p := compileC(t, src, "main")
	if got := runISA(t, p, 1000000); got != 25+1000 {
		t.Errorf("while/do = %d, want 1025", got)
	}
}

func TestCompileRejectsPointers(t *testing.T) {
	src := `
int main() {
    int *p = 0;
    return 0;
}`
	prog, err := chdl.ParseC(src)
	if err != nil {
		t.Fatalf("ParseC: %v", err)
	}
	if _, err := Compile(prog, "main"); err == nil {
		t.Error("expected pointer compile error")
	}
}

func TestCompileRejectsMalloc(t *testing.T) {
	src := `int main() { int x = malloc(4); return x; }`
	prog, err := chdl.ParseC(src)
	if err != nil {
		t.Fatalf("ParseC: %v", err)
	}
	if _, err := Compile(prog, "main"); err == nil {
		t.Error("expected malloc compile error")
	}
}

// TestCompilerMatchesInterpreter cross-checks ISA execution against the
// chdl interpreter on a randomized arithmetic kernel: the property that
// grounds the whole SLT substrate.
func TestCompilerMatchesInterpreter(t *testing.T) {
	src := `
int kernel(int a, int b, int c) {
    int acc = 0;
    int buf[8];
    for (int i = 0; i < 8; i++) buf[i] = (a + i) * (b - i);
    for (int i = 0; i < 8; i++) {
        if (buf[i] % 3 == 0) acc += buf[i] / (c | 1);
        else acc ^= buf[i] << (i & 3);
    }
    while (acc > 1000000) acc /= 7;
    return acc;
}`
	cprog, err := chdl.ParseC(src)
	if err != nil {
		t.Fatalf("ParseC: %v", err)
	}
	iprog, err := Compile(cprog, "kernel")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	check := func(a, b, c int16) bool {
		in, err := chdl.NewInterp(cprog)
		if err != nil {
			return false
		}
		want, err := in.CallInts("kernel", int64(a), int64(b), int64(c))
		if err != nil {
			return false
		}
		got, err := InterpretArgs(iprog, "kernel", 10_000_000, int32(a), int32(b), int32(c))
		if err != nil {
			return false
		}
		return int64(got) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDisassembleStable(t *testing.T) {
	src := `int main() { return 1 + 2; }`
	p := compileC(t, src, "main")
	d := p.Disassemble()
	if d == "" {
		t.Error("empty disassembly")
	}
}

// TestInterpretRejectsBadRegister: Interpret rejects a program that
// names a register outside the register file anywhere, before running
// any of it, as boom.Run traps on it; before, it panicked with an index
// out of range.
func TestInterpretRejectsBadRegister(t *testing.T) {
	p := &Program{Insts: []Inst{{Op: OpAddi, Rd: 40, Imm: 1}, {Op: OpHalt}}}
	if _, err := Interpret(p, 100); err == nil || !strings.Contains(err.Error(), "register x40 out of range at pc 0") {
		t.Errorf("Interpret: err %v, want the bad register named", err)
	}
	p = &Program{Insts: []Inst{{Op: OpHalt}, {Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 63}}, Entry: map[string]int{"f": 0}}
	if _, err := InterpretArgs(p, "f", 100, 1); err == nil || !strings.Contains(err.Error(), "register x63 out of range at pc 1") {
		t.Errorf("InterpretArgs: err %v, want the bad register named", err)
	}
}

// TestInterpretStepBoundary pins the window edge the GP screen relies
// on: a HALT reached after exactly maxSteps instructions is a step limit,
// as it is a timeout in boom, and one step more halts.
func TestInterpretStepBoundary(t *testing.T) {
	p := &Program{Insts: []Inst{
		{Op: OpAddi, Rd: RegA0, Imm: 7},
		{Op: OpAddi, Rd: RegZero, Rs1: RegA0, Imm: 1}, // x0 stays 0
		{Op: OpAdd, Rd: RegA0, Rs1: RegA0, Rs2: RegZero},
		{Op: OpHalt},
	}}
	if _, err := Interpret(p, 3); !errors.Is(err, ErrISAStepLimit) {
		t.Errorf("HALT after exactly maxSteps: err %v, want ErrISAStepLimit", err)
	}
	if v, err := Interpret(p, 4); err != nil || v != 7 {
		t.Errorf("Interpret = %d, %v; want 7", v, err)
	}
}

// TestInterpretPagedMemory: words no store touched read 0, stores land
// in the page they address, and addresses outside data memory are
// errors, at both ends of it.
func TestInterpretPagedMemory(t *testing.T) {
	p := &Program{Insts: []Inst{
		{Op: OpAddi, Rd: 5, Imm: 1234},
		{Op: OpSw, Rs1: RegSP, Rs2: 5, Imm: 0},                  // the last word
		{Op: OpSw, Rs1: RegZero, Rs2: 5, Imm: pageWords},        // first word of page 1
		{Op: OpLw, Rd: 6, Rs1: RegZero, Imm: pageWords + 1},     // untouched: 0
		{Op: OpLw, Rd: 7, Rs1: RegSP, Imm: 0},                   // 1234
		{Op: OpLw, Rd: 8, Rs1: RegZero, Imm: 3 * pageWords / 2}, // page never stored: 0
		{Op: OpAdd, Rd: RegA0, Rs1: 6, Rs2: 7},
		{Op: OpAdd, Rd: RegA0, Rs1: RegA0, Rs2: 8},
		{Op: OpHalt},
	}}
	if v, err := Interpret(p, 100); err != nil || v != 1234 {
		t.Errorf("Interpret = %d, %v; want 1234", v, err)
	}
	for _, in := range []Inst{{Op: OpLw, Rd: 5, Rs1: RegSP, Imm: 1}, {Op: OpSw, Rs1: RegZero, Imm: -1}} {
		bad := &Program{Insts: []Inst{in, {Op: OpHalt}}}
		if _, err := Interpret(bad, 100); err == nil || !strings.Contains(err.Error(), "out of range at pc 0") {
			t.Errorf("%v: err %v, want an out-of-range address", in, err)
		}
	}
}
