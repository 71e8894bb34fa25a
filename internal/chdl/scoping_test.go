package chdl

import (
	"fmt"
	"testing"
)

// scopingCases pin the interpreter's name resolution and the builtins'
// corner cases: declarations that are the bare body of an if, else,
// while, do or for (they bind in the enclosing scope only when they run),
// redeclarations, references before a declaration, globals initialized
// from earlier globals and from functions, fresh storage per execution of
// a declaration, and the runtime errors. Each want line was produced by
// the map-scoped interpreter that the slot-resolved one replaced.
var scopingCases = []struct {
	name, src string
	args      []int64
	want      string
}{
	{"cond-decl-if", `int g = 100;
int f(int c) { int x = 1; if (c) int x = 2; return x; }`, []int64{1},
		`2 <nil> steps=9 out="" br=map[2:1] tr=[2:x=1 2:x=2]`},
	{"cond-decl-if-false", `int g = 100;
int f(int c) { int x = 1; if (c) int x = 2; return x; }`, []int64{0},
		`1 <nil> steps=7 out="" br=map[] tr=[2:x=1]`},
	{"cond-decl-to-global", `int x = 100;
int f(int c) { if (c) int x = 2; return x; }`, []int64{0},
		`100 <nil> steps=5 out="" br=map[] tr=[]`},
	{"cond-decl-to-global-true", `int x = 100;
int f(int c) { if (c) int x = 2; return x; }`, []int64{1},
		`2 <nil> steps=7 out="" br=map[2:1] tr=[2:x=2]`},
	{"loop-backedge", `int x = 100;
int f(int n) { int i = 0; int y = 0; while (i < n) if (i++ > 0) y = y + x; else int x = 5; return y; }`, []int64{3},
		`10 <nil> steps=50 out="" br=map[2:5] tr=[2:i=0 2:y=0 2:i=1 2:x=5 2:i=2 2:y=5 2:i=3 2:y=10]`},
	{"loop-order", `int f(int n) { int i = 0; int s = 0; while (i < 2) if (i++ == 1) int x = 1; else int x = 2; return x; }`, []int64{0},
		`1 <nil> steps=32 out="" br=map[1:3] tr=[1:i=0 1:s=0 1:i=1 1:x=2 1:i=2 1:x=1]`},
	{"for-body-decl", `int x = 7;
int f(int n) { int s = 0; for (int i = 0; i < n; i++) int x = i * 10; return x; }`, []int64{3},
		`7 <nil> steps=41 out="" br=map[2:3] tr=[2:s=0 2:i=0 2:x=0 2:i=1 2:x=10 2:i=2 2:x=20 2:i=3]`},
	{"for-post-sees-body", `int x = 7;
int f(int n) { int s = 0; int i = 0; for (; i < n; s = s + x) int x = i++; return s; }`, []int64{4},
		`6 <nil> steps=55 out="" br=map[2:4] tr=[2:s=0 2:i=0 2:i=1 2:x=0 2:s=0 2:i=2 2:x=1 2:s=1 2:i=3 2:x=2 2:s=3 2:i=4 2:x=3 2:s=6]`},
	{"block-fresh-per-iter", `int x = 9;
int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s = s + x; if (i == 0) int x = 50; s = s + x; } return s; }`, []int64{3},
		`95 <nil> steps=73 out="" br=map[2:4] tr=[2:s=0 2:i=0 2:s=9 2:x=50 2:s=59 2:i=1 2:s=68 2:s=77 2:i=2 2:s=86 2:s=95 2:i=3]`},
	{"redecl-init-sees-old", `int f(int a) { int x = a; int x = x + 1; int x = x * 2; return x; }`, []int64{5},
		`12 <nil> steps=12 out="" br=map[] tr=[1:x=5 1:x=6 1:x=12]`},
	{"ref-before-decl", `int x = 3;
int f(int a) { int y = x; int x = 10; return y * 100 + x; }`, []int64{0},
		`310 <nil> steps=11 out="" br=map[] tr=[2:y=3 2:x=10]`},
	{"fresh-storage", `int f(int n) { int *p; int *q; int s = 0; for (int i = 0; i < 2; i++) { int v = i + 5; if (i == 0) p = &v; else q = &v; } return *p * 10 + *q; }`, []int64{0},
		`56 <nil> steps=52 out="" br=map[1:3] tr=[1:s=0 1:i=0 1:v=5 1:i=1 1:v=6 1:i=2]`},
	{"global-init-order", `int a = 2;
int b = a * 3;
int a = b + 1;
int f(int z) { return a * 100 + b; }`, []int64{0},
		`706 <nil> steps=13 out="" br=map[] tr=[]`},
	{"global-init-forward", `int b = a;
int a = 1;
int f(int z) { return b; }`, []int64{0},
		`init C runtime error at line 1: undefined variable "a"`},
	{"global-init-call", `int h() { return a + 1; }
int a = 1;
int b = h();
int f(int z) { return b; }`, []int64{0},
		`init C runtime error at line 1: undefined variable "a"`},
	{"param-shadow", `int f(int a) { int a = a + 1; return a; }`, []int64{4},
		`5 <nil> steps=6 out="" br=map[] tr=[1:a=5]`},
	{"dup-param", `int f(int a, int a) { return a; }`, []int64{4, 9},
		`9 <nil> steps=2 out="" br=map[] tr=[]`},
	{"do-decl-cond", `int x = 3;
int f(int n) { int k = 0; do int x = k++; while (x < n); return k * 10 + x; }`, []int64{4},
		`54 <nil> steps=44 out="" br=map[] tr=[2:k=0 2:k=1 2:x=0 2:k=2 2:x=1 2:k=3 2:x=2 2:k=4 2:x=3 2:k=5 2:x=4]`},
	{"nested-maybe", `int x = 1;
int f(int c) { int s = 0; { if (c & 1) int x = 10; { if (c & 2) int x = 20; s = x; } } return s; }`, []int64{1},
		`10 <nil> steps=18 out="" br=map[2:1] tr=[2:s=0 2:x=10 2:s=10]`},
	{"nested-maybe2", `int x = 1;
int f(int c) { int s = 0; { if (c & 1) int x = 10; { if (c & 2) int x = 20; s = x; } } return s; }`, []int64{2},
		`20 <nil> steps=18 out="" br=map[2:1] tr=[2:s=0 2:x=20 2:s=20]`},
	{"nested-maybe0", `int x = 1;
int f(int c) { int s = 0; { if (c & 1) int x = 10; { if (c & 2) int x = 20; s = x; } } return s; }`, []int64{0},
		`1 <nil> steps=16 out="" br=map[] tr=[2:s=0 2:s=1]`},
	{"undefined", `int f(int c) { if (c) int y = 1; return y; }`, []int64{0},
		`0 C runtime error at line 1: undefined variable "y" steps=4 out="" br=map[] tr=[]`},
	{"undefined-assign", `int f(int c) { z = 1; return 0; }`, []int64{0},
		`0 C runtime error at line 1: undefined variable "z" steps=3 out="" br=map[] tr=[]`},
	{"addr-undefined", `int f(int c) { int *p = &zz; return 0; }`, []int64{0},
		`0 C runtime error at line 1: undefined variable "zz" steps=2 out="" br=map[] tr=[]`},
	{"call-undefined", `int f(int c) { return g(c++); }`, []int64{0},
		`0 C runtime error at line 1: call to undefined function "g" steps=2 out="" br=map[] tr=[]`},
	{"arity", `int g(int a) { return a; } int f(int c) { return g(c, c); }`, []int64{0},
		`0 C runtime error at line 1: g expects 1 arguments, got 2 steps=4 out="" br=map[] tr=[]`},
	{"recursion", `int f(int c) { return f(c + 1); }`, []int64{0},
		`0 C runtime error at line 1: call depth exceeds 256 (runaway recursion?) steps=1280 out="" br=map[] tr=[]`},
	{"ptr-compound", `int f(int c) { int a[4] = {1,2,3,4}; int *p = a; p += 2; p -= 1; p *= 2; return *p; }`, []int64{0},
		`0 C runtime error at line 1: unsupported pointer compound assignment steps=19 out="" br=map[] tr=[]`},
	{"not-assignable", `int f(int c) { (c + 1) = 3; return c; }`, []int64{0},
		`0 C runtime error at line 0: expression *chdl.BinExpr is not assignable steps=3 out="" br=map[] tr=[]`},
	{"sizeof-assign", `int f(int c) { sizeof(int) += 3; return c; }`, []int64{0},
		`0 C runtime error at line 0: expression *chdl.SizeofExpr is not assignable steps=4 out="" br=map[] tr=[]`},
	{"array-len", `int f(int c) { int a[]; return 0; }`, []int64{0},
		`0 C runtime error at line 1: array "a" has no static length steps=1 out="" br=map[] tr=[]`},
	{"array-2d", `int f(int c) { int a[2][3]; a[5] = 300; char b[2][2]; b[3] = 300; return a[5] + b[3]; }`, []int64{0},
		`600 <nil> steps=20 out="" br=map[] tr=[1:a=300 1:b=300]`},
	{"char-arr", `int f(int c) { char b[4]; b[1] = 300; return b[1]; }`, []int64{0},
		`44 <nil> steps=10 out="" br=map[] tr=[1:b=44]`},
	{"ptr-scalar", `int f(int c) { int a[2]; int x = a; return x; }`, []int64{0},
		`0 C runtime error at line 1: pointer assigned to scalar "x" steps=3 out="" br=map[] tr=[]`},
	{"ptr-store", `int f(int c) { int a[2]; int x; x = a; return x; }`, []int64{0},
		`0 C runtime error at line 1: storing a pointer into a scalar cell steps=5 out="" br=map[] tr=[1:x=0]`},
	{"ptr-assign-var", `int f(int c) { int a[2]; a = 5; return a; }`, []int64{0},
		`5 <nil> steps=6 out="" br=map[] tr=[]`},
	{"ptr-cmp", `int f(int c) { int a[2]; int b[2]; int *p = a; int *q = a + 1; return (p < q) * 100 + (a == b) * 10 + (q - p); }`, []int64{0},
		`101 <nil> steps=24 out="" br=map[] tr=[]`},
	{"str", `int f(int c) { char *s = "hi"; printf("%s %d %x %c %u %p %% %q|", s, -5, 255, 65, -1, s + 1); puts("x"); putchar(66); return s[1]; }`, []int64{0},
		`105 <nil> steps=25 out="hi -5 ff A 18446744073709551615 ptr+1 % %q|x\nB" br=map[] tr=[]`},
	{"rand", `int f(int c) { srand(c); int a = rand(); int b = rand(); return (a ^ b) & 1023; }`, []int64{3},
		`1016 <nil> steps=13 out="" br=map[] tr=[1:a=243117059 1:b=697555963]`},
	{"assert", `int f(int c) { assert(c > 5); return 1; }`, []int64{3},
		`0 C runtime error at line 1: assertion failed steps=5 out="" br=map[] tr=[]`},
	{"exit", `int f(int c) { exit(c++); return 1; }`, []int64{3},
		`0 C runtime error at line 1: exit() called steps=2 out="" br=map[] tr=[]`},
	{"double-free", `int f(int c) { int *p = malloc(3); free(p); free(p); return 1; }`, []int64{3},
		`0 C runtime error at line 1: double free steps=9 out="" br=map[] tr=[]`},
	{"calloc", `int f(int c) { int *p = calloc(2, 3); p[5] = 4; return p[5] + abs(-7) + labs(-2); }`, []int64{3},
		`13 <nil> steps=21 out="" br=map[] tr=[1:p=4]`},
	{"malloc-big", `int f(int c) { int *p = malloc(20000000); return 1; }`, []int64{3},
		`0 C runtime error at line 1: malloc of 20000000 cells rejected steps=3 out="" br=map[] tr=[]`},
	{"deref-oob", `int f(int c) { int a[2]; int *p = a + 2; return *p; }`, []int64{3},
		`0 C runtime error at line 1: pointer dereference out of bounds steps=8 out="" br=map[] tr=[]`},
	{"deref-nonptr", `int f(int c) { return *c; }`, []int64{3},
		`0 C runtime error at line 1: dereferencing a non-pointer value steps=3 out="" br=map[] tr=[]`},
	{"index-nonptr", `int f(int c) { return c[1]; }`, []int64{3},
		`0 C runtime error at line 1: indexing a non-pointer value steps=3 out="" br=map[] tr=[]`},
	{"cast-ptr", `int f(int c) { int a[2]; return (int)a; }`, []int64{3},
		`0 C runtime error at line 1: casting a pointer to a scalar steps=4 out="" br=map[] tr=[]`},
	{"unary-plus", `int f(int c) { return -c + !c + ~c; }`, []int64{3},
		`-7 <nil> steps=9 out="" br=map[] tr=[]`},
	{"postfix-ptr", `int f(int c) { int a[3] = {4,5,6}; int *p = a; p++; ++p; p--; return *p; }`, []int64{3},
		`5 <nil> steps=18 out="" br=map[] tr=[]`},
	{"trace-decls", `int f(int c) { int a[3]; int *p = a; int x = 3; x += 2; a[1] = x; *p = 4; p = a; for (int i = 0; i < c; i++) x++; return x; }`, []int64{3},
		`8 <nil> steps=56 out="" br=map[1:3] tr=[1:x=3 1:x=5 1:a=5 1:i=0 1:x=6 1:i=1 1:x=7 1:i=2 1:x=8 1:i=3]`},
	{"break-continue", `int f(int n) { int s = 0; for (int i = 0; i < n; i++) { if (i == 2) continue; if (i == 5) break; s += i; } while (1) { s++; if (s > 20) break; } do { s--; if (s == 15) break; } while (1); return s; }`, []int64{8},
		`15 <nil> steps=270 out="" br=map[1:23] tr=[1:s=0 1:i=0 1:s=0 1:i=1 1:s=1 1:i=2 1:i=3 1:s=4 1:i=4 1:s=8 1:i=5 1:s=9 1:s=10 1:s=11 1:s=12 1:s=13 1:s=14 1:s=15 1:s=16 1:s=17 1:s=18 1:s=19 1:s=20 1:s=21 1:s=20 1:s=19 1:s=18 1:s=17 1:s=16 1:s=15]`},
	{"top-break", `int f(int n) { if (n) { break; } return 5; }`, []int64{1},
		`0 <nil> steps=2 out="" br=map[1:1] tr=[]`},
	{"memset-ptr", `int f(int n) { int a[4]; int *p = a + 2; memset(p, 9, 5); memcpy(a, p, 2); return a[0] + a[1] + a[3]; }`, []int64{1},
		`27 <nil> steps=27 out="" br=map[] tr=[]`},
	{"div", `long f(long n) { long m = -9223372036854775807 - 1; return (m / -1 == m) + (m % -1) + 7 / n; }`, []int64{0},
		`0 C runtime error at line 1: division by zero steps=21 out="" br=map[] tr=[1:m=-9223372036854775808]`},
	{"mod0", `int f(int n) { return 7 % n; }`, []int64{0},
		`0 C runtime error at line 1: modulo by zero steps=4 out="" br=map[] tr=[]`},
	{"shift", `long f(long n) { return (1 << 65) + (-8 >> 1) + (n << 64); }`, []int64{3},
		`1 <nil> steps=13 out="" br=map[] tr=[]`},
	{"bool", `int f(int n) { bool b = n; unsigned u = -1; return b + (u > 0); }`, []int64{5},
		`2 <nil> steps=11 out="" br=map[] tr=[1:b=1 1:u=4294967295]`},
	{"global-array", `int t[3] = {1, 2};
int f(int n) { t[n] += 5; return t[0] + t[1] * 10 + t[2] * 100; }`, []int64{2},
		`521 <nil> steps=26 out="" br=map[] tr=[2:t=5]`},
	{"global-persist-fail", `int t = undefined_thing;
int f(int n) { return n; }`, []int64{2},
		`init C runtime error at line 1: undefined variable "undefined_thing"`},
}

// describe renders one call the way scopingCases record it.
func describe(prog *Program, args []int64) string {
	in, err := NewInterp(prog, InterpOptions{})
	if err != nil {
		return fmt.Sprintf("init %v", err)
	}
	var trace []string
	in.TraceAll = true
	in.Trace = func(line int, name string, v int64) { trace = append(trace, fmt.Sprintf("%d:%s=%d", line, name, v)) }
	v, err := in.CallInts("f", args...)
	return fmt.Sprintf("%d %v steps=%d out=%q br=%v tr=%v", v, err, in.Steps(), in.Output(), in.BranchCount, trace)
}

func TestScopingPinned(t *testing.T) {
	for _, c := range scopingCases {
		prog, err := ParseC(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := describe(prog, c.args); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}
