package chdl

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := ParseC(src)
	if err != nil {
		t.Fatalf("ParseC: %v", err)
	}
	return p
}

func run(t *testing.T, src, fn string, args ...int64) int64 {
	t.Helper()
	prog := mustParse(t, src)
	in, err := NewInterp(prog, InterpOptions{})
	if err != nil {
		t.Fatalf("NewInterp: %v", err)
	}
	v, err := in.CallInts(fn, args...)
	if err != nil {
		t.Fatalf("CallInts(%s): %v", fn, err)
	}
	return v
}

func TestParseAndRunArithmetic(t *testing.T) {
	src := `
int compute(int a, int b) {
    int s = a * 3 + b / 2 - 1;
    s <<= 1;
    s |= 1;
    return s;
}`
	if got := run(t, src, "compute", 5, 8); got != ((5*3+8/2-1)<<1)|1 {
		t.Errorf("compute = %d", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
int collatz_steps(int n) {
    int steps = 0;
    while (n != 1) {
        if (n % 2 == 0) n = n / 2;
        else n = 3 * n + 1;
        steps++;
        if (steps > 1000) break;
    }
    return steps;
}`
	if got := run(t, src, "collatz_steps", 27); got != 111 {
		t.Errorf("collatz(27) = %d, want 111", got)
	}
}

func TestForLoopAndArrays(t *testing.T) {
	src := `
int sum_squares(int n) {
    int acc[64];
    for (int i = 0; i < n; i++) acc[i] = i * i;
    int total = 0;
    for (int i = 0; i < n; i++) total += acc[i];
    return total;
}`
	if got := run(t, src, "sum_squares", 10); got != 285 {
		t.Errorf("sum_squares(10) = %d, want 285", got)
	}
}

func TestRecursionFibonacci(t *testing.T) {
	src := `
int fib(int n) {
    if (n < 2) return n;
    return fib(n-1) + fib(n-2);
}`
	if got := run(t, src, "fib", 15); got != 610 {
		t.Errorf("fib(15) = %d", got)
	}
}

func TestMallocPointerProgram(t *testing.T) {
	src := `
int sum_dyn(int n) {
    int *buf = (int*)malloc(n * sizeof(int));
    for (int i = 0; i < n; i++) buf[i] = i + 1;
    int total = 0;
    int *p = buf;
    for (int i = 0; i < n; i++) { total += *p; p++; }
    free(buf);
    return total;
}`
	if got := run(t, src, "sum_dyn", 10); got != 55 {
		t.Errorf("sum_dyn = %d, want 55", got)
	}
}

func TestUseAfterFreeDetected(t *testing.T) {
	src := `
int uaf() {
    int *p = (int*)malloc(4);
    free(p);
    return p[0];
}`
	prog := mustParse(t, src)
	in, err := NewInterp(prog, InterpOptions{})
	if err != nil {
		t.Fatalf("NewInterp: %v", err)
	}
	if _, err := in.CallInts("uaf"); err == nil || !strings.Contains(err.Error(), "use after free") {
		t.Errorf("expected use-after-free, got %v", err)
	}
}

func TestOutOfBoundsDetected(t *testing.T) {
	src := `
int oob() {
    int a[4];
    return a[10];
}`
	prog := mustParse(t, src)
	in, _ := NewInterp(prog, InterpOptions{})
	if _, err := in.CallInts("oob"); err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("expected bounds error, got %v", err)
	}
}

func TestIntWraparound(t *testing.T) {
	src := `
int wrap() {
    int x = 2147483647;
    x = x + 1;
    return x;
}`
	if got := run(t, src, "wrap"); got != -2147483648 {
		t.Errorf("int overflow wraps to %d, want -2147483648", got)
	}
}

func TestCharTruncation(t *testing.T) {
	src := `
int trunc_char() {
    char c = 200;
    return c;
}`
	if got := run(t, src, "trunc_char"); got != -56 {
		t.Errorf("char 200 = %d, want -56", got)
	}
}

func TestPrintfOutput(t *testing.T) {
	src := `
int report(int a) {
    printf("value=%d hex=%x char=%c %s\n", a, a, 65, "ok");
    return 0;
}`
	prog := mustParse(t, src)
	in, _ := NewInterp(prog, InterpOptions{})
	if _, err := in.CallInts("report", 42); err != nil {
		t.Fatalf("report: %v", err)
	}
	if got := in.Output(); got != "value=42 hex=2a char=A ok\n" {
		t.Errorf("printf output = %q", got)
	}
}

func TestGlobalsPersistAcrossCalls(t *testing.T) {
	src := `
int counter = 0;
int bump() { counter += 1; return counter; }`
	prog := mustParse(t, src)
	in, _ := NewInterp(prog, InterpOptions{})
	for want := int64(1); want <= 3; want++ {
		got, err := in.CallInts("bump")
		if err != nil {
			t.Fatalf("bump: %v", err)
		}
		if got != want {
			t.Errorf("bump #%d = %d", want, got)
		}
	}
}

func TestStepLimitStopsInfiniteLoop(t *testing.T) {
	src := `int spin() { while (1) { } return 0; }`
	prog := mustParse(t, src)
	in, _ := NewInterp(prog, InterpOptions{MaxSteps: 10_000})
	_, err := in.CallInts("spin")
	if !errors.Is(err, ErrStepLimit) {
		t.Errorf("expected ErrStepLimit, got %v", err)
	}
}

func TestArrayParameterSharing(t *testing.T) {
	src := `
void doubler(int a[], int n) {
    for (int i = 0; i < n; i++) a[i] *= 2;
}`
	prog := mustParse(t, src)
	in, _ := NewInterp(prog, InterpOptions{})
	buf := NewBuffer([]int64{1, 2, 3, 4})
	if _, err := in.Call("doubler", buf, IntVal(4)); err != nil {
		t.Fatalf("doubler: %v", err)
	}
	got := BufferData(buf)
	for i, want := range []int64{2, 4, 6, 8} {
		if got[i] != want {
			t.Errorf("a[%d] = %d, want %d", i, got[i], want)
		}
	}
}

func TestTernaryAndLogicalShortCircuit(t *testing.T) {
	src := `
int guard(int x) {
    // Division only evaluated when x != 0: short-circuit required.
    return (x != 0 && 100 / x > 5) ? 1 : 0;
}`
	if got := run(t, src, "guard", 0); got != 0 {
		t.Errorf("guard(0) = %d", got)
	}
	if got := run(t, src, "guard", 10); got != 1 {
		t.Errorf("guard(10) = %d", got)
	}
}

func TestPragmaParsing(t *testing.T) {
	src := `
int kernel(int a[], int n) {
#pragma HLS pipeline II=2
    int acc = 0;
    for (int i = 0; i < 64; i++) {
#pragma HLS unroll factor=4
        acc += a[i % n];
    }
    return acc;
}`
	prog := mustParse(t, src)
	fn := prog.FindFunc("kernel")
	if fn == nil {
		t.Fatal("kernel not found")
	}
	if len(fn.Pragmas) != 1 || fn.Pragmas[0].Directive != "pipeline" || fn.Pragmas[0].Args["ii"] != "2" {
		t.Errorf("function pragmas = %+v", fn.Pragmas)
	}
	var loop *ForStmt
	for _, st := range fn.Body.Stmts {
		if f, ok := st.(*ForStmt); ok {
			loop = f
		}
	}
	if loop == nil || len(loop.Pragmas) != 1 || loop.Pragmas[0].Directive != "unroll" || loop.Pragmas[0].Args["factor"] != "4" {
		t.Errorf("loop pragmas missing: %+v", loop)
	}
}

func TestAnalyzeFindsIncompatibilities(t *testing.T) {
	src := `
int helper(int n) {
    if (n <= 0) return 0;
    return helper(n - 1) + 1;
}
int kernel(int *data, int n) {
    int *buf = (int*)malloc(n * sizeof(int));
    float scale = 2;
    while (n > 0) { n--; }
    printf("%d", n);
    free(buf);
    return helper(n);
}`
	prog := mustParse(t, src)
	issues := Analyze(prog)
	kinds := map[IssueKind]int{}
	for _, is := range issues {
		kinds[is.Kind]++
	}
	for _, want := range []IssueKind{IssueDynamicMemory, IssueRecursion, IssueUnboundedLoop, IssueFloatingPoint, IssueIO, IssuePointerParam} {
		if kinds[want] == 0 {
			t.Errorf("Analyze missed %s; got %v", want, issues)
		}
	}
}

func TestAnalyzeCleanKernel(t *testing.T) {
	src := `
int dot(int a[16], int b[16]) {
    int acc = 0;
    for (int i = 0; i < 16; i++) acc += a[i] * b[i];
    return acc;
}`
	prog := mustParse(t, src)
	for _, is := range Analyze(prog) {
		if is.Kind.Blocking() {
			t.Errorf("clean kernel flagged: %v", is)
		}
	}
}

func TestParseErrorsC(t *testing.T) {
	cases := []string{
		"int f( { return 0; }",
		"int f() { return 0 }",
		"int f() { int x = ; }",
		"",
	}
	for _, src := range cases {
		if _, err := ParseC(src); err == nil {
			t.Errorf("ParseC(%q) succeeded, want error", src)
		}
	}
}

func TestInterpreterMatchesGoSemanticsQuick(t *testing.T) {
	src := `
long mix(long a, long b) {
    long x = a ^ (b << 3);
    x = x + a * 7 - (b & 1023);
    if (x < 0) x = -x;
    return x % 1000003;
}`
	prog := mustParse(t, src)
	ref := func(a, b int64) int64 {
		x := a ^ (b << 3)
		x = x + a*7 - (b & 1023)
		if x < 0 {
			x = -x
		}
		if x == int64(-1)<<63 { // |minint| stays negative in C and Go alike
			return x % 1000003
		}
		return x % 1000003
	}
	check := func(a, b int32) bool {
		in, err := NewInterp(prog, InterpOptions{})
		if err != nil {
			return false
		}
		got, err := in.CallInts("mix", int64(a), int64(b))
		if err != nil {
			return false
		}
		return got == ref(int64(a), int64(b))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestTraceHooks(t *testing.T) {
	src := `
int accumulate(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) acc = acc + i;
    return acc;
}`
	prog := mustParse(t, src)
	in, _ := NewInterp(prog, InterpOptions{})
	var samples []int64
	in.TraceVars = map[string]bool{"acc": true}
	in.Trace = func(line int, name string, v int64) {
		samples = append(samples, v)
	}
	if _, err := in.CallInts("accumulate", 5); err != nil {
		t.Fatalf("accumulate: %v", err)
	}
	// acc is written at declaration and then 5 times: 0,0,1,3,6,10.
	if len(samples) < 5 || samples[len(samples)-1] != 10 {
		t.Errorf("trace samples = %v", samples)
	}
	if in.BranchCount[4] != 5 {
		t.Errorf("loop branch count = %v", in.BranchCount)
	}
}

func TestDoWhileAndPostfix(t *testing.T) {
	src := `
int countdown(int n) {
    int ticks = 0;
    do {
        ticks++;
        n--;
    } while (n > 0);
    return ticks;
}`
	if got := run(t, src, "countdown", 5); got != 5 {
		t.Errorf("countdown(5) = %d", got)
	}
	if got := run(t, src, "countdown", 0); got != 1 { // do/while runs once
		t.Errorf("countdown(0) = %d", got)
	}
}

func TestMemsetMemcpy(t *testing.T) {
	src := `
int blit(int n) {
    int src[16], dst[16];
    memset(src, 7, 16);
    memcpy(dst, src, n);
    int total = 0;
    for (int i = 0; i < 16; i++) total += dst[i];
    return total;
}`
	if got := run(t, src, "blit", 8); got != 56 {
		t.Errorf("blit = %d, want 56", got)
	}
}

func TestGlobalArrayInitList(t *testing.T) {
	src := `
int lut[4] = {10, 20, 30, 40};
int pick(int i) { return lut[i]; }`
	if got := run(t, src, "pick", 2); got != 30 {
		t.Errorf("pick(2) = %d", got)
	}
}

// deepInputs returns programs nested n levels deep in each way that
// deepens the parser's recursion or the tree it builds: parentheses,
// blocks, chained ifs and a chain of binary operators.
func deepInputs(n int) map[string]string {
	return map[string]string{
		"parens": "int main() { return " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }",
		"blocks": "int main() { " + strings.Repeat("{", n) + strings.Repeat("}", n) + " return 0; }",
		"ifs":    "int main() { int x = 0; " + strings.Repeat("if (x) ", n) + "x = 1; return x; }",
		"chain":  "int main() { return 1" + strings.Repeat("+1", n) + "; }",
	}
}

// TestDeepNestingRejected: input nested past maxDepth is a parse error
// rather than a stack overflow. At 1.5M levels the parentheses and the
// blocks (3 MB each, under a served spec's 4 MB cap) and the chained ifs
// (10.5 MB) overflow the stack of an uncapped parser; 100k levels reach
// the cap with less input to lex.
func TestDeepNestingRejected(t *testing.T) {
	for name, src := range deepInputs(100_000) {
		_, err := ParseC(src)
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "nesting deeper") {
			t.Errorf("%s: err = %v, want a nesting ParseError", name, err)
		}
	}
}

// TestNestingCapBoundary: maxDepth nested blocks parse; one more does not.
func TestNestingCapBoundary(t *testing.T) {
	blocks := func(n int) string {
		return "int f() { " + strings.Repeat("{", n) + strings.Repeat("}", n) + " return 0; }"
	}
	if _, err := ParseC(blocks(maxDepth)); err != nil {
		t.Errorf("%d nested blocks: %v", maxDepth, err)
	}
	if _, err := ParseC(blocks(maxDepth + 1)); err == nil {
		t.Errorf("%d nested blocks parsed, want a nesting error", maxDepth+1)
	}
}
