package verilog

import (
	"fmt"
	"math/rand"
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
// identical simulator state and returns both outcomes.
func evalBoth(t *testing.T, s *Simulator, ex Expr) (treeV Value, treeErr error, vmV Value, vmErr error) {
	t.Helper()
	ev := evaluator{sim: s, scope: nil}

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
	_, vmErr = vmRun(s, prog, regs, nil, &ev, 0)
	if vmErr == nil && prog.numRegs > 0 {
		vmV = regs[0]
	}
	return treeV, treeErr, vmV, vmErr
}

func TestVMMatchesTreeEvaluatorOnRandomExprs(t *testing.T) {
	d := propDesign(t)
	rng := rand.New(rand.NewSource(20260729))
	g := &exprGen{rng: rng, d: d}

	const trees = 5000
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
		treeV, treeErr, vmV, vmErr := evalBoth(t, s, ex)
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
}

// TestVMHelpersMatchApply pins the out-of-loop helpers the continuous-
// assign fast paths use (vmBinary/vmUnary) to the canonical applyBinary/
// applyUnary semantics over random operand pairs.
func TestVMHelpersMatchApply(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		x := randValue(rng, 1+rng.Intn(64))
		y := randValue(rng, 1+rng.Intn(64))
		for opStr, opc := range binaryOps {
			want, err := applyBinary(opStr, x, y)
			if err != nil {
				t.Fatalf("applyBinary(%q) errored: %v", opStr, err)
			}
			if got := vmBinary(opc, x, y); got != want {
				t.Fatalf("vmBinary(%q, %s, %s) = %s, applyBinary = %s", opStr, x, y, got, want)
			}
		}
		for opStr, opc := range unaryOps {
			want, err := applyUnary(opStr, x)
			if err != nil {
				t.Fatalf("applyUnary(%q) errored: %v", opStr, err)
			}
			if got := vmUnary(opc, x); got != want {
				t.Fatalf("vmUnary(%q, %s) = %s, applyUnary = %s", opStr, x, got, want)
			}
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

// withFusion runs fn with the fusePairs peephole forced on or off,
// restoring the default afterwards. Programs compiled inside fn carry the
// setting permanently (fusion happens at lowering), so fn must compile
// everything it runs.
func withFusion(on bool, fn func()) {
	old := enableFusion
	enableFusion = on
	defer func() { enableFusion = old }()
	fn()
}

// genFusionSource builds one random self-contained testbench whose hot
// paths land on the fused opcodes: straight-line statements in loops and
// always bodies, constant-compare loop tests, constant-seeded then
// $random-perturbed counters, a small continuous-assign cone, an
// uninitialized register so X actually flows through fused arithmetic,
// and interleaved $display so the output stream pins evaluation order.
func genFusionSource(rng *rand.Rand) string {
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
	// y stays uninitialized here: the w0/w1 cone and any fused opcode
	// reading y must take the X path until the loop assigns it.
	b.WriteString("    #4 rst = 0;\n")
	n := 32 + rng.Intn(96)
	fmt.Fprintf(&b, "    for (i = 0; i < %d; i = i + 1) begin\n", n)
	if rng.Intn(2) == 0 {
		b.WriteString("      if (i == 9) y = $random;\n")
	} else {
		b.WriteString("      if (i == 3) y = x + 1;\n")
	}
	// A run of random straight-line statements: the fusion candidates.
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

// fusionFingerprint compiles src fresh (so the active fusion setting is
// baked into the programs) and renders everything observable about the
// run as one string. It also counts the fused opcodes in the compiled
// programs, by opcode.
func fusionFingerprint(t *testing.T, src string, seed uint64, fused map[OpCode]int) string {
	t.Helper()
	cd, err := Compile(src, "tb")
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	count := func(p *Program) {
		for _, ins := range p.code {
			if ins.Op >= opStepConst && ins.Op <= opStepCopyNB { // the fusePairs opcodes
				fused[ins.Op]++
			}
		}
	}
	for _, pr := range cd.Design.procs {
		count(pr.prog)
	}
	for _, ca := range cd.Design.assigns {
		if ca.prog != nil {
			count(ca.prog)
		}
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

// TestFusionIsObservationallyIdentical is the peephole's soundness
// property: for random testbenches, the engine with fusePairs off must
// produce a byte-identical simulation to the default fused engine: same
// output stream, same $random draw order, same final signal state, same
// termination.
func TestFusionIsObservationallyIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	const sources = 25
	fusedOn, fusedOff := map[OpCode]int{}, map[OpCode]int{}
	for sIdx := 0; sIdx < sources; sIdx++ {
		src := genFusionSource(rng)
		seed := uint64(rng.Intn(1 << 30))
		var want, got string
		withFusion(true, func() { want = fusionFingerprint(t, src, seed, fusedOn) })
		withFusion(false, func() { got = fusionFingerprint(t, src, seed, fusedOff) })
		if got != want {
			t.Fatalf("source %d: fusion off diverged\n want %s\n  got %s\nsource:\n%s",
				sIdx, want, got, src)
		}
	}
	// The property is only meaningful if the corpus actually fused: the
	// fused engine's programs must carry each of these opcodes (both
	// peephole passes), and the reference engine's none at all.
	for _, op := range []OpCode{opStepConst, opStepLoadSig, opLoadSig2, opBrCmpK, opStepConstStore} {
		if fusedOn[op] == 0 {
			t.Errorf("corpus compiled with fusion on has no opcode %d: fusion stopped firing (fused: %v)", op, fusedOn)
		}
	}
	if len(fusedOff) != 0 {
		t.Errorf("corpus compiled with fusion off still has fused opcodes: %v", fusedOff)
	}
}
