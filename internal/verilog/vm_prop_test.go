package verilog

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Property test for the bytecode engine: random expression trees must
// evaluate bit-for-bit identically on the VM and on the retained tree
// evaluator — values when both succeed, error text when both fail, and
// never one succeeding where the other fails. Trees draw 4-state leaf
// values across the full width range the subset supports (1..64 bits;
// wider state exists only as multi-word memories, which the generator
// covers through word reads), and include every operator, ternaries with
// unknown conditions, concats, replications, part selects with both
// constant and computed bounds, bit selects, memory word reads, and
// $time/$random/$clog2.

// propSignals is the signal state the generated trees read.
var propSignals = []struct {
	name  string
	width int
	words int
}{
	{"s1", 1, 1},
	{"s5", 5, 1},
	{"s8", 8, 1},
	{"s16", 16, 1},
	{"s32", 32, 1},
	{"s63", 63, 1},
	{"s64", 64, 1},
	{"mem8", 8, 16},
	{"mem64", 64, 4},
}

// propDesign elaborates a design declaring the property signals.
func propDesign(t *testing.T) *Design {
	t.Helper()
	src := `module tb;
  reg s1;
  reg [4:0] s5;
  reg [7:0] s8;
  reg [15:0] s16;
  reg [31:0] s32;
  reg [62:0] s63;
  reg [63:0] s64;
  reg [7:0] mem8 [0:15];
  reg [63:0] mem64 [0:3];
endmodule`
	cd, err := Compile(src, "tb")
	if err != nil {
		t.Fatalf("compile prop design: %v", err)
	}
	return cd.Design
}

// randValue draws a 4-state value of the given width; roughly half the
// draws are fully known.
func randValue(rng *rand.Rand, width int) Value {
	v := Value{Bits: rng.Uint64() & maskFor(width), Width: width}
	if rng.Intn(2) == 0 {
		v.Unknown = rng.Uint64() & maskFor(width)
	}
	return v
}

// exprGen builds random bound expression trees over the prop signals.
type exprGen struct {
	rng *rand.Rand
	d   *Design
}

func (g *exprGen) ref(name string) *boundRef {
	id, ok := g.d.byName["tb."+name]
	if !ok {
		panic("missing prop signal " + name)
	}
	return &boundRef{sig: id, name: name, line: 1}
}

var propUnaryOps = []string{"~", "!", "-", "&", "|", "^", "~&", "~|", "~^"}
var propBinaryOps = []string{
	"+", "-", "*", "/", "%", "&", "|", "^", "~^", "~&", "~|",
	"<<", ">>", "==", "!=", "===", "!==", "<", ">", "<=", ">=", "&&", "||",
}

func (g *exprGen) gen(depth int) Expr {
	r := g.rng
	if depth <= 0 || r.Intn(4) == 0 {
		// Leaf: a literal or a signal read.
		switch r.Intn(3) {
		case 0:
			w := 1 + r.Intn(64)
			return &Number{Val: randValue(r, w), Line: 1}
		case 1:
			sig := propSignals[r.Intn(7)] // single-word signals only
			return g.ref(sig.name)
		default:
			// Memory word read (possibly out of range or X-indexed).
			mem := propSignals[7+r.Intn(2)]
			return &Index{X: g.ref(mem.name), Idx: g.gen(0), Line: 1}
		}
	}
	switch r.Intn(10) {
	case 0:
		return &Unary{Op: propUnaryOps[r.Intn(len(propUnaryOps))], X: g.gen(depth - 1)}
	case 1, 2, 3:
		return &Binary{Op: propBinaryOps[r.Intn(len(propBinaryOps))], X: g.gen(depth - 1), Y: g.gen(depth - 1)}
	case 4:
		return &Ternary{Cond: g.gen(depth - 1), Then: g.gen(depth - 1), Else: g.gen(depth - 1)}
	case 5:
		n := 1 + g.rng.Intn(3)
		parts := make([]Expr, n)
		for i := range parts {
			parts[i] = g.gen(depth - 1)
		}
		return &Concat{Parts: parts}
	case 6:
		// Replication; counts occasionally unknown or oversized to cover
		// the diagnostic paths.
		count := Expr(&Number{Val: NewValue(uint64(1+g.rng.Intn(5)), 8), Line: 1})
		if g.rng.Intn(8) == 0 {
			count = g.gen(0)
		}
		return &Repeat{Count: count, X: g.gen(depth - 1)}
	case 7:
		// Bit select on an arbitrary expression.
		return &Index{X: g.gen(depth - 1), Idx: g.gen(depth - 1), Line: 1}
	case 8:
		// Part select: usually constant bounds, sometimes computed.
		lsb := g.rng.Intn(16)
		w := 1 + g.rng.Intn(16)
		var msbE, lsbE Expr = &Number{Val: NewValue(uint64(lsb+w-1), 32), Line: 1},
			&Number{Val: NewValue(uint64(lsb), 32), Line: 1}
		if g.rng.Intn(6) == 0 {
			msbE = g.gen(0)
		}
		if g.rng.Intn(6) == 0 {
			lsbE = g.gen(0)
		}
		return &PartSelect{X: g.gen(depth - 1), MSB: msbE, LSB: lsbE, Line: 1}
	default:
		switch g.rng.Intn(3) {
		case 0:
			return &SysFunc{Name: "$time", Line: 1}
		case 1:
			return &SysFunc{Name: "$random", Line: 1}
		default:
			return &SysFunc{Name: "$clog2", Args: []Expr{g.gen(depth - 1)}, Line: 1}
		}
	}
}

// evalBoth evaluates ex on the tree evaluator and on the VM from
// identical simulator state and returns both outcomes, plus the lowered
// code the VM ran.
func evalBoth(t *testing.T, s *Simulator, ex Expr) (treeV Value, treeErr error, vmV Value, vmErr error, code []Instr) {
	t.Helper()
	ev := evaluator{sim: s}

	rng := s.rngState
	treeV, treeErr = ev.eval(ex)

	lw := getLowerer(s.design, nil, true)
	lw.expr(ex, 0)
	lw.emit(opEnd, 0, 0, 0, 0, 0)
	lw.finish()
	prog := lw.prog
	putLowerer(lw)

	s.rngState = rng // both sides see the same $random stream
	regs := make([]Value, prog.numRegs)
	_, vmErr = vmRun(s, prog, regs, nil, 0)
	if vmErr == nil && prog.numRegs > 0 {
		vmV = regs[0]
	}
	return treeV, treeErr, vmV, vmErr, prog.code
}

func TestVMMatchesTreeEvaluatorOnRandomExprs(t *testing.T) {
	d := propDesign(t)
	rng := rand.New(rand.NewSource(20260729))
	g := &exprGen{rng: rng, d: d}

	const trees = 5000
	// compared counts each value opcode's occurrences in the lowered code
	// of trees both engines evaluated without error — the trees whose
	// values the loop below compares.
	compared := map[OpCode]int{}
	for i := 0; i < trees; i++ {
		s := NewSimulator(d, SimOptions{Seed: uint64(i)})
		// Randomize every signal word, including memories.
		for _, sig := range d.Signals {
			words := s.words(sig.ID)
			for w := range words {
				words[w] = randValue(rng, sig.Width)
			}
		}
		s.now = uint64(rng.Intn(1 << 20))

		ex := g.gen(4)
		treeV, treeErr, vmV, vmErr, code := evalBoth(t, s, ex)
		if treeErr == nil && vmErr == nil {
			for _, ins := range code {
				compared[ins.Op]++
			}
		}
		switch {
		case (treeErr == nil) != (vmErr == nil):
			t.Fatalf("tree %d: error divergence\n tree: %v (val %s)\n   vm: %v (val %s)",
				i, treeErr, treeV, vmErr, vmV)
		case treeErr != nil:
			if treeErr.Error() != vmErr.Error() {
				t.Fatalf("tree %d: diagnostics diverge\n tree: %v\n   vm: %v", i, treeErr, vmErr)
			}
		case treeV != vmV:
			t.Fatalf("tree %d: values diverge\n tree: %s (bits %#x unk %#x w %d)\n   vm: %s (bits %#x unk %#x w %d)",
				i, treeV, treeV.Bits, treeV.Unknown, treeV.Width,
				vmV, vmV.Bits, vmV.Unknown, vmV.Width)
		}
	}
	// The comparison pins an operator's VM semantics to applyBinary/
	// applyUnary only if some error-free tree actually ran it: every value
	// opcode, constant-operand variants included, must have been compared.
	for op := opNot; op <= opGeK; op++ {
		if compared[op] == 0 {
			t.Errorf("value opcode %d never compared: no error-free tree lowered to it (compared: %v)", op, compared)
		}
	}
}

// TestVMMatchesTreeEvaluatorOnFoldedPartSelects covers constant
// part-select bounds the random trees do not draw: operator trees over
// literals, which the lowering folds into opPartSelK like literal bounds,
// and LSBs past bit 63, up to values that do not fit the int32 operand,
// which select zeros.
func TestVMMatchesTreeEvaluatorOnFoldedPartSelects(t *testing.T) {
	d := propDesign(t)
	g := &exprGen{d: d}
	num := func(v uint64) Expr { return &Number{Val: NewValue(v, 64)} }
	for i, b := range []struct{ msb, lsb Expr }{
		{&Binary{Op: "-", X: num(8), Y: num(1)}, &Binary{Op: "*", X: num(2), Y: num(2)}},
		{num(70), num(64)},
		{num(1<<32 + 3), num(1 << 32)},
		{num(1<<63 + 1), num(1 << 63)},
	} {
		s := NewSimulator(d, SimOptions{})
		s.words(g.ref("s64").sig)[0] = NewValue(^uint64(0), 64)
		ex := &PartSelect{X: g.ref("s64"), MSB: b.msb, LSB: b.lsb, Line: 1}
		treeV, treeErr, vmV, vmErr, code := evalBoth(t, s, ex)
		if treeErr != nil || vmErr != nil || treeV != vmV {
			t.Errorf("case %d: tree %s (%v), vm %s (%v)", i, treeV, treeErr, vmV, vmErr)
		}
		if code[len(code)-2].Op != opPartSelK {
			t.Errorf("case %d: bounds did not fold into opPartSelK: %v", i, code)
		}
	}
}

// TestSelfDependentConcatAssignReentry pins the register-file isolation
// of re-entrant continuous assigns: a multi-store concat assign whose
// own first store's t=0 propagation wave re-evaluates the same assign
// must behave exactly like the tree kernel's per-entry locals — the
// nested evaluation may not clobber the outer frame's still-live RHS
// registers. The $random stream is the sensitive observable: the tree
// kernel's stale-slice store triggers two extra evaluation waves (each
// drawing one $random from the masked term), so a later draw in the
// initial block lands on a different stream position if the VM skips
// them. Expected bytes captured from the pre-VM kernel at Seed 7.
func TestSelfDependentConcatAssignReentry(t *testing.T) {
	src := `module tb;
  wire [1:0] y;
  wire z;
  reg [31:0] r;
  assign {y, z} = {2'b01, y[1]} ^ ($random & 32'h0);
  initial begin #1 r = $random; #1 $finish; end
endmodule`
	cd, err := Compile(src, "tb")
	if err != nil {
		t.Fatal(err)
	}
	res, err := cd.Run(SimOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeErr != nil || !res.Finished || res.EndTime != 2 {
		t.Fatalf("run diverged: %+v", res)
	}
	want := "tb.r=32'b11111011100010111001111111101000\ntb.y=2'b01\ntb.z=1'b0\n"
	if got := FormatSignals(res, "tb."); got != want {
		t.Fatalf("finals diverged from the tree kernel:\n got %q\nwant %q", got, want)
	}
}

// genRandomTestbench builds one random self-contained testbench:
// straight-line statements in loops and always bodies, constant-compare
// loop tests, constant-seeded then $random-perturbed counters, a small
// continuous-assign cone, an uninitialized register so X actually flows
// through the arithmetic and the cone, and interleaved $display so the
// output stream pins evaluation order.
func genRandomTestbench(rng *rand.Rand) string {
	var b strings.Builder
	ops := []string{"+", "-", "*", "&", "|", "^"}
	b.WriteString("module tb;\n")
	b.WriteString("  reg clk, rst;\n")
	b.WriteString("  reg [7:0] a;\n")
	b.WriteString("  reg [15:0] c0, c1;\n")
	b.WriteString("  reg [31:0] acc, x, y, i;\n")
	b.WriteString("  wire [31:0] w0, w1;\n")
	b.WriteString("  assign w0 = x ^ y;\n")
	fmt.Fprintf(&b, "  assign w1 = w0 %s acc;\n", ops[rng.Intn(3)])
	b.WriteString("  always #1 clk = ~clk;\n")
	b.WriteString("  always @(posedge clk)\n")
	b.WriteString("    if (rst) begin c0 <= 0; c1 <= 0; end\n")
	b.WriteString("    else begin\n")
	fmt.Fprintf(&b, "      c0 <= c0 + %d;\n", 1+rng.Intn(7))
	fmt.Fprintf(&b, "      c1 <= c1 %s c0;\n", ops[rng.Intn(len(ops))])
	b.WriteString("    end\n")
	b.WriteString("  initial begin\n")
	b.WriteString("    clk = 0; rst = 1; a = 1; acc = 0;\n")
	fmt.Fprintf(&b, "    x = %d;\n", rng.Intn(1<<16))
	// y stays uninitialized here: the w0/w1 cone and any statement
	// reading y must take the X path until the loop assigns it.
	b.WriteString("    #4 rst = 0;\n")
	n := 32 + rng.Intn(96)
	fmt.Fprintf(&b, "    for (i = 0; i < %d; i = i + 1) begin\n", n)
	if rng.Intn(2) == 0 {
		b.WriteString("      if (i == 9) y = $random;\n")
	} else {
		b.WriteString("      if (i == 3) y = x + 1;\n")
	}
	// A run of random straight-line statements.
	for s := 0; s < 3+rng.Intn(6); s++ {
		dst := []string{"acc", "x", "a"}[rng.Intn(3)]
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&b, "      %s = %s %s %d;\n", dst, dst, ops[rng.Intn(len(ops))], 1+rng.Intn(255))
		case 1:
			src := []string{"acc", "x", "y", "i"}[rng.Intn(4)]
			fmt.Fprintf(&b, "      %s = %s %s %s;\n", dst, dst, ops[rng.Intn(len(ops))], src)
		case 2:
			src := []string{"acc", "x", "y"}[rng.Intn(3)]
			fmt.Fprintf(&b, "      %s = ~%s;\n", dst, src)
		default:
			fmt.Fprintf(&b, "      %s = $random;\n", dst)
		}
	}
	b.WriteString("      #2 ;\n")
	fmt.Fprintf(&b, "      if (i %% %d == 0) $display(\"i=%%d acc=%%h w1=%%h c1=%%h\", i, acc, w1, c1);\n", 8+rng.Intn(24))
	b.WriteString("    end\n")
	b.WriteString("    $display(\"end acc=%h x=%h y=%h w0=%h w1=%h c0=%h c1=%h\", acc, x, y, w0, w1, c0, c1);\n")
	b.WriteString("    $finish;\n")
	b.WriteString("  end\n")
	b.WriteString("endmodule\n")
	return b.String()
}

// runFingerprint compiles and runs src and renders everything
// observable about the run as one string: output stream (and with it
// the $random draw order), check counts, termination, end time, runtime
// error and final signal state.
func runFingerprint(t *testing.T, src string, seed uint64) string {
	t.Helper()
	cd, err := Compile(src, "tb")
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	res, err := cd.Run(SimOptions{Seed: seed})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, src)
	}
	rt := ""
	if res.RuntimeErr != nil {
		rt = res.RuntimeErr.Error()
	}
	return fmt.Sprintf("out=%q checks=%d fails=%d fin=%v to=%v end=%d rt=%q finals=%q",
		res.Output, res.Checks, res.Failures, res.Finished, res.TimedOut,
		res.EndTime, rt, FormatSignals(res, "tb."))
}

// randomTBCase is one fixture entry: a generated testbench, the
// simulation seed it runs under, and its recorded run fingerprint.
type randomTBCase struct {
	Seed        uint64 `json:"seed"`
	Source      string `json:"source"`
	Fingerprint string `json:"fingerprint"`
}

// TestRandomTestbenchGolden pins whole-testbench behaviour on a random
// corpus: 25 genRandomTestbench sources (rng seed 20260808, one drawn
// simulation seed each) must reproduce, byte for byte, the fingerprints
// in testdata/random_tb_golden.json. The fixture was recorded before the
// kernel's finish-time peephole and continuous-assign shortcut were
// deleted, so it holds every process body and continuous assign — the
// X-carrying `assign w0 = x ^ y; assign w1 = w0 op acc` cone included —
// to the behaviour those mechanisms produced. There is no update path: a
// divergence is a kernel regression, not a fixture change.
func TestRandomTestbenchGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "random_tb_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []randomTBCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	const sources = 25
	if len(want) != sources {
		t.Fatalf("fixture holds %d cases, want %d", len(want), sources)
	}
	rng := rand.New(rand.NewSource(20260808))
	for i, c := range want {
		src := genRandomTestbench(rng)
		seed := uint64(rng.Intn(1 << 30))
		if src != c.Source || seed != c.Seed {
			t.Fatalf("case %d: generator no longer reproduces the fixture (seed %d, want %d)\n got source:\n%s\nwant source:\n%s",
				i, seed, c.Seed, src, c.Source)
		}
		if got := runFingerprint(t, src, seed); got != c.Fingerprint {
			t.Errorf("case %d: run diverged from the fixture\n want %s\n  got %s\nsource:\n%s",
				i, c.Fingerprint, got, src)
		}
	}
}
