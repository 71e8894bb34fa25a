// Package hls implements the high-level-synthesis substrate of the Fig. 2/3
// case studies: it compiles chdl C kernels into FSM-style Verilog RTL
// (one state per statement, memories for arrays, an ap_start/ap_done
// handshake), reports Vitis-style diagnostics for HLS-incompatible
// constructs, estimates pragma-sensitive PPA, and runs C-RTL
// co-simulation against the chdl interpreter.
//
// The RTL datapath computes in unsigned fixed-width arithmetic (WidthBits,
// default 32) while the "CPU execution" reference computes in C semantics;
// customized narrower widths therefore produce exactly the class of
// behavioral discrepancies (overflow, truncation) the paper's Fig. 3
// framework hunts for.
package hls

import (
	"errors"
	"fmt"
	"strings"

	"llm4eda/internal/chdl"
	"llm4eda/internal/core"
	"llm4eda/internal/simfarm"
	"llm4eda/internal/verilog"
)

// ErrNotSynthesizable wraps compilation rejections caused by blocking
// incompatibilities; the repair framework keys off this.
var ErrNotSynthesizable = errors.New("hls: kernel is not synthesizable")

// Options parameterize synthesis.
type Options struct {
	// WidthBits is the datapath width (default 32). Narrower widths model
	// "customized bit widths in FPGA deployment" and are a deliberate
	// discrepancy source for the Fig. 3 experiments.
	WidthBits int
	// ClockMHz sets the target clock for power estimation (default 100).
	ClockMHz float64
	// MaxMemWords bounds total memory cells (default 1 << 16).
	MaxMemWords int
}

func (o Options) withDefaults() Options {
	if o.WidthBits == 0 {
		o.WidthBits = 32
	}
	if o.WidthBits > 64 {
		o.WidthBits = 64
	}
	if o.ClockMHz == 0 {
		o.ClockMHz = 100
	}
	if o.MaxMemWords == 0 {
		o.MaxMemWords = 1 << 16
	}
	return o
}

// Design is the synthesis result.
type Design struct {
	// Verilog is the generated RTL.
	Verilog string
	// TopModule is the generated module name.
	TopModule string
	// Params lists the scalar parameter names in port order.
	Params []string
	// PPA is the analytic power/performance/area estimate.
	PPA core.PPA
	// States is the FSM state count.
	States int
	// Warnings carries non-blocking diagnostics (skipped printf etc.).
	Warnings []string
	opts     Options
}

// Synthesize compiles the named function of a chdl program to RTL.
// Blocking incompatibilities abort with ErrNotSynthesizable and the full
// diagnostic list in the error message — the "actual errors" of the
// paper's repair flow stage 1.
func Synthesize(prog *chdl.Program, fn string, opts Options) (*Design, error) {
	opts = opts.withDefaults()
	target := prog.FindFunc(fn)
	if target == nil {
		return nil, fmt.Errorf("hls: function %q not found", fn)
	}
	var blocking []string
	for _, issue := range chdl.Analyze(prog) {
		if issue.Kind.Blocking() {
			blocking = append(blocking, issue.String())
		}
	}
	if len(blocking) > 0 {
		return nil, fmt.Errorf("%w:\n%s", ErrNotSynthesizable, strings.Join(blocking, "\n"))
	}
	g := newCodegen(prog, target, opts)
	if err := g.run(); err != nil {
		return nil, err
	}
	d := &Design{
		Verilog:   g.emit(),
		TopModule: "hls_" + fn,
		Params:    g.paramNames(),
		States:    len(g.states),
		Warnings:  g.warnings,
		opts:      opts,
	}
	d.PPA = estimatePPA(prog, target, g, opts)
	return d, nil
}

// Diagnostics returns all analyzer findings of a source file formatted as
// HLS tool output; parse failures come back as a single diagnostic.
func Diagnostics(source string) []string {
	prog, err := simfarm.ParseC(source)
	if err != nil {
		return []string{fmt.Sprintf("hls frontend: %v", err)}
	}
	var out []string
	for _, issue := range chdl.Analyze(prog) {
		out = append(out, issue.String())
	}
	return out
}

// --- PPA model --------------------------------------------------------------

// opCost tabulates NAND2-equivalent gate counts and intrinsic delays per
// operator at width w.
func opCost(op string, w float64) (gates, delayNS float64) {
	switch op {
	case "+", "-":
		return 9 * w, 0.05*w + 0.4
	case "*":
		return 5.5 * w * w, 0.12*w + 1.2
	case "/", "%":
		return 18 * w * w, 0.5*w + 3
	case "<<", ">>":
		return 3 * w * 5, 0.8
	case "&", "|", "^":
		return w, 0.15
	case "<", "<=", ">", ">=", "==", "!=":
		return 3 * w, 0.04*w + 0.3
	case "&&", "||", "!":
		return 2, 0.1
	default:
		return w, 0.3
	}
}

// loopInfo captures static trip counts and pragmas for latency estimation.
type loopInfo struct {
	trips    int
	ii       int
	unroll   int
	bodyOps  int
	bodyCost float64
}

// estimatePPA walks the kernel and folds operator costs, storage and
// pragma effects into the PPA triple. Pipelining divides effective loop
// latency by its initiation interval; unrolling multiplies datapath area
// by the factor while dividing trip count.
func estimatePPA(prog *chdl.Program, fn *chdl.FuncDecl, g *codegen, opts Options) core.PPA {
	w := float64(opts.WidthBits)
	var area, maxDelay float64
	var latency float64

	// Registers and memories.
	area += float64(len(g.regs)) * w * 7
	for _, m := range g.mems {
		area += float64(m.words) * w * 1.5
	}

	var walk func(st chdl.Stmt, unroll int, ii int) float64
	countExprOps := func(e chdl.Expr) (ops float64, gatesAcc float64, depth float64) {
		var rec func(e chdl.Expr) float64 // returns depth
		rec = func(e chdl.Expr) float64 {
			switch n := e.(type) {
			case *chdl.BinExpr:
				gts, d := opCost(n.Op, w)
				gatesAcc += gts
				ops++
				dx, dy := rec(n.X), rec(n.Y)
				if dy > dx {
					dx = dy
				}
				return dx + d
			case *chdl.UnExpr:
				gatesAcc += w
				ops++
				return rec(n.X) + 0.2
			case *chdl.AssignExpr:
				dx := rec(n.RHS)
				_ = rec(n.LHS)
				return dx
			case *chdl.CondExpr:
				gatesAcc += 3 * w
				ops++
				d := rec(n.Cond)
				dt, de := rec(n.Then), rec(n.Else)
				if de > dt {
					dt = de
				}
				return d + dt + 0.3
			case *chdl.IndexExpr:
				gatesAcc += 2 * w // address decode share
				ops++
				_ = rec(n.X)
				return rec(n.Idx) + 0.9
			case *chdl.PostfixExpr:
				gatesAcc += 9 * w
				ops++
				return rec(n.X) + 0.5
			case *chdl.CallExpr:
				for _, a := range n.Args {
					_ = rec(a)
				}
				return 0.5
			case *chdl.CastExpr:
				return rec(n.X)
			default:
				return 0
			}
		}
		depth = rec(e)
		return ops, gatesAcc, depth
	}

	walk = func(st chdl.Stmt, unroll, ii int) float64 {
		switch n := st.(type) {
		case nil:
			return 0
		case *chdl.BlockStmt:
			var cyc float64
			for _, s := range n.Stmts {
				cyc += walk(s, unroll, ii)
			}
			return cyc
		case *chdl.DeclStmt:
			var cyc float64
			for _, d := range n.Decls {
				if d.Init != nil {
					ops, gts, depth := countExprOps(d.Init)
					_ = ops
					area += gts * float64(unroll)
					if depth > maxDelay {
						maxDelay = depth
					}
					cyc++
				}
				cyc += float64(len(d.InitList))
			}
			return cyc
		case *chdl.ExprStmt:
			_, gts, depth := countExprOps(n.X)
			area += gts * float64(unroll)
			if depth > maxDelay {
				maxDelay = depth
			}
			return 1
		case *chdl.IfStmt:
			_, gts, depth := countExprOps(n.Cond)
			area += gts * float64(unroll)
			if depth > maxDelay {
				maxDelay = depth
			}
			thenCyc := walk(n.Then, unroll, ii)
			elseCyc := walk(n.Else, unroll, ii)
			if elseCyc > thenCyc {
				thenCyc = elseCyc
			}
			return 1 + thenCyc
		case *chdl.ForStmt:
			trips := staticTrips(n)
			u, pipeII := pragmaFactors(n.Pragmas)
			body := walk(n.Body, unroll*u, ii)
			if n.Init != nil {
				body += 1
			}
			perIter := body + 2 // condition + post
			effTrips := float64(trips) / float64(u)
			if pipeII > 0 {
				// Pipelined: depth + II*(trips-1).
				return perIter + float64(pipeII)*(effTrips-1)
			}
			return perIter * effTrips
		case *chdl.WhileStmt:
			body := walk(n.Body, unroll, ii)
			return (body + 1) * 16 // analyzer blocks these; nominal bound
		case *chdl.DoStmt:
			body := walk(n.Body, unroll, ii)
			return (body + 1) * 16
		case *chdl.ReturnStmt:
			if n.X != nil {
				_, gts, depth := countExprOps(n.X)
				area += gts * float64(unroll)
				if depth > maxDelay {
					maxDelay = depth
				}
			}
			return 1
		default:
			return 1
		}
	}
	latency = walk(fn.Body, 1, 0) + 2 // start/done handshake

	if maxDelay < 1 {
		maxDelay = 1
	}
	// Clock period must cover the worst state; power scales with area,
	// toggle activity and clock.
	const toggleRate = 0.18
	powerMW := area*toggleRate*opts.ClockMHz*0.000012 + area*0.00045
	return core.PPA{
		AreaGates:  area,
		DelayNS:    maxDelay,
		PowerMW:    powerMW,
		LatencyCyc: int(latency),
	}
}

// staticTrips extracts the trip count of a canonical bounded loop
// (for i = C0; i < C1; i += C2), defaulting to 16.
func staticTrips(n *chdl.ForStmt) int {
	start := int64(0)
	if ds, ok := n.Init.(*chdl.DeclStmt); ok && len(ds.Decls) == 1 && ds.Decls[0].Init != nil {
		if lit, ok := ds.Decls[0].Init.(*chdl.IntLit); ok {
			start = lit.Val
		}
	}
	if es, ok := n.Init.(*chdl.ExprStmt); ok {
		if asn, ok := es.X.(*chdl.AssignExpr); ok {
			if lit, ok := asn.RHS.(*chdl.IntLit); ok {
				start = lit.Val
			}
		}
	}
	cond, ok := n.Cond.(*chdl.BinExpr)
	if !ok {
		return 16
	}
	lim, ok := cond.Y.(*chdl.IntLit)
	if !ok {
		return 16
	}
	span := lim.Val - start
	if cond.Op == "<=" {
		span++
	}
	if span <= 0 {
		return 1
	}
	if span > 1<<20 {
		return 1 << 20
	}
	return int(span)
}

// pragmaFactors extracts unroll factor and pipeline II from loop pragmas.
func pragmaFactors(pragmas []*chdl.Pragma) (unroll, ii int) {
	unroll = 1
	for _, p := range pragmas {
		switch p.Directive {
		case "unroll":
			if f := atoiDefault(p.Args["factor"], 2); f > 1 {
				unroll = f
			}
		case "pipeline":
			ii = atoiDefault(p.Args["ii"], 1)
		}
	}
	return unroll, ii
}

func atoiDefault(s string, def int) int {
	if s == "" {
		return def
	}
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return def
		}
		n = n*10 + int(c-'0')
	}
	if n == 0 {
		return def
	}
	return n
}

// --- co-simulation -----------------------------------------------------------

// CoSimResult reports one C-RTL co-simulation vector outcome.
type CoSimResult struct {
	Inputs   []int64
	CPU      int64 // chdl interpreter result
	RTL      int64 // simulated hardware result
	RTLValid bool  // ap_done reached
	Cycles   uint64
	Match    bool
	// CPUErr records interpreter faults (the vector is then skipped for
	// equivalence purposes but still reported).
	CPUErr error
}

// CoSimulate runs the kernel and its RTL on each input vector and compares
// results: stage 3 of the Fig. 2 flow ("C-RTL co-simulation") and the
// simulation backend of the Fig. 3 tester.
func CoSimulate(d *Design, prog *chdl.Program, fn string, vectors [][]int64) ([]CoSimResult, error) {
	target := prog.FindFunc(fn)
	if target == nil {
		return nil, fmt.Errorf("hls: function %q not found", fn)
	}
	if len(d.Params) != len(target.Params) {
		return nil, fmt.Errorf("hls: design/function parameter mismatch")
	}
	for _, vec := range vectors {
		if len(vec) != len(d.Params) {
			return nil, fmt.Errorf("hls: vector has %d values, kernel takes %d", len(vec), len(d.Params))
		}
	}

	// The generated RTL is fixed across vectors; only the one-vector
	// testbench changes. Batch the RTL runs through simfarm so the DUT
	// parses once and the vectors simulate in parallel.
	jobs := make([]simfarm.Job, len(vectors))
	for i, vec := range vectors {
		jobs[i] = simfarm.Job{
			DUT: d.Verilog, TB: buildCoSimTB(d, vec), Top: "cosim_tb",
			DUTTop: d.TopModule, Lint: true,
			Opts: verilog.SimOptions{MaxTime: 4_000_000, MaxSteps: 8_000_000},
		}
	}
	rtlRuns := simfarm.RunMany(jobs, 0)

	out := make([]CoSimResult, 0, len(vectors))
	for i, vec := range vectors {
		r := CoSimResult{Inputs: append([]int64(nil), vec...)}

		in, err := chdl.NewInterp(prog, chdl.InterpOptions{})
		if err != nil {
			return nil, err
		}
		cpu, err := in.CallInts(fn, vec...)
		if err != nil {
			r.CPUErr = err
		} else {
			r.CPU = cpu
		}

		if res := rtlRuns[i].Res; rtlRuns[i].Err == nil && res.RuntimeErr == nil && res.Finished {
			r.RTLValid = true
			if v, ok := res.Final["cosim_tb.captured"]; ok && v.IsFullyKnown() {
				r.RTL = signExtend(v.Uint(), d.opts.WidthBits)
			}
			r.Cycles = res.EndTime / 10
		}
		r.Match = r.CPUErr == nil && r.RTLValid && r.CPU == r.RTL
		out = append(out, r)
	}
	return out, nil
}

// signExtend interprets a w-bit RTL value as a signed C integer.
func signExtend(v uint64, w int) int64 {
	if w >= 64 {
		return int64(v)
	}
	sign := uint64(1) << uint(w-1)
	if v&sign != 0 {
		return int64(v | ^((uint64(1) << uint(w)) - 1))
	}
	return int64(v)
}

// buildCoSimTB drives one vector through the handshake.
func buildCoSimTB(d *Design, vec []int64) string {
	var b strings.Builder
	w := d.opts.WidthBits
	b.WriteString("module cosim_tb;\n")
	b.WriteString("  reg clk, rst, ap_start;\n")
	b.WriteString("  wire ap_done;\n")
	fmt.Fprintf(&b, "  wire [%d:0] ap_return;\n", w-1)
	fmt.Fprintf(&b, "  reg [%d:0] captured;\n", w-1)
	var conns []string
	conns = append(conns, ".clk(clk)", ".rst(rst)", ".ap_start(ap_start)", ".ap_done(ap_done)", ".ap_return(ap_return)")
	for i, p := range d.Params {
		fmt.Fprintf(&b, "  reg [%d:0] arg_%s;\n", w-1, p)
		conns = append(conns, fmt.Sprintf(".arg_%s(arg_%s)", p, p))
		_ = i
	}
	fmt.Fprintf(&b, "  %s dut(%s);\n", d.TopModule, strings.Join(conns, ", "))
	b.WriteString("  always #5 clk = ~clk;\n")
	b.WriteString("  initial begin\n")
	b.WriteString("    clk = 0; rst = 1; ap_start = 0;\n")
	for i, p := range d.Params {
		fmt.Fprintf(&b, "    arg_%s = %d'd%d;\n", p, w, uint64(vec[i])&maskW(w))
	}
	b.WriteString("    @(negedge clk);\n    rst = 0; ap_start = 1;\n")
	b.WriteString("    @(negedge clk);\n    ap_start = 0;\n")
	b.WriteString("    wait (ap_done);\n")
	b.WriteString("    captured = ap_return;\n")
	b.WriteString("    $finish;\n  end\nendmodule\n")
	return b.String()
}

func maskW(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}
