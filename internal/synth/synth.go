// Package synth implements the logic-synthesis substrate: it maps Verilog
// RTL onto a NAND2-equivalent gate estimate with critical-path and power
// models. It maps every operator literally: no constant folding, sharing
// or strength reduction (the last is the rewrite the LLM contributes). It
// supplies the gate-level PPA numbers of the Fig. 6 agent's synthesis
// stage and the LLSM-style synthesis-assist experiment.
package synth

import (
	"fmt"
	"math"

	"llm4eda/internal/core"
	"llm4eda/internal/verilog"
)

// The dynamic-power model's clock and average switching activity.
const (
	clockMHz   = 100
	toggleRate = 0.15
)

// Result is the synthesis report for one top module (hierarchy included).
type Result struct {
	Top      string
	Gates    float64
	Regs     int
	MemBits  int
	DelayNS  float64
	PowerMW  float64
	OpCounts map[string]int
}

// PPA folds the result into the shared triple.
func (r *Result) PPA() core.PPA {
	return core.PPA{AreaGates: r.Gates, DelayNS: r.DelayNS, PowerMW: r.PowerMW}
}

// String summarizes the report.
func (r *Result) String() string {
	return fmt.Sprintf("synth(%s): %.0f gates, %d regs, %d membits, %.2f ns, %.2f mW",
		r.Top, r.Gates, r.Regs, r.MemBits, r.DelayNS, r.PowerMW)
}

// SynthesizeRTL parses the source and estimates PPA for the top module,
// recursing through instantiated modules.
func SynthesizeRTL(src, top string) (*Result, error) {
	file, err := verilog.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	s := &synthesizer{file: file, res: &Result{Top: top, OpCounts: map[string]int{}}}
	if err := s.module(top, 0); err != nil {
		return nil, err
	}
	r := s.res
	// Register and memory area.
	r.Gates += float64(r.Regs) * 7
	r.Gates += float64(r.MemBits) * 1.5
	if r.DelayNS < 0.5 {
		r.DelayNS = 0.5
	}
	r.PowerMW = r.Gates*toggleRate*clockMHz*0.000012 + r.Gates*0.00045
	return r, nil
}

type synthesizer struct {
	file *verilog.SourceFile
	res  *Result
}

const maxSynthDepth = 32

// module accumulates one module's cost (and its children's).
func (s *synthesizer) module(name string, depth int) error {
	if depth > maxSynthDepth {
		return fmt.Errorf("synth: hierarchy deeper than %d (recursive instantiation?)", maxSynthDepth)
	}
	mod := s.file.FindModule(name)
	if mod == nil {
		return fmt.Errorf("synth: module %q not found", name)
	}

	widths := map[string]int{}
	for _, p := range mod.Ports {
		widths[p.Name] = exprWidth(p.Width)
		if p.IsReg {
			s.res.Regs += exprWidth(p.Width)
		}
	}

	w := &walker{s: s, widths: widths}

	for _, item := range mod.Items {
		switch it := item.(type) {
		case *verilog.NetDecl:
			wd := exprWidth(it.Width)
			widths[it.Name] = wd
			if it.ArrayHi != nil {
				words := exprWidth(it.ArrayHi) // msb+1 words
				s.res.MemBits += words * wd
			} else if it.IsReg {
				s.res.Regs += wd
			}
			if it.Init != nil {
				w.expr(it.Init, wd)
			}
		case *verilog.ContAssign:
			wd := w.lhsWidth(it.LHS)
			d := w.expr(it.RHS, wd)
			if d > s.res.DelayNS {
				s.res.DelayNS = d
			}
		case *verilog.AlwaysBlock:
			d := w.stmt(it.Body)
			if d > s.res.DelayNS {
				s.res.DelayNS = d
			}
		case *verilog.InitialBlock:
			// Testbench-only constructs: no hardware.
		case *verilog.Instance:
			if err := s.module(it.ModuleName, depth+1); err != nil {
				return err
			}
		}
	}
	return nil
}

// exprWidth evaluates a constant width expression (msb) to width; unknown
// forms default to 1/32 heuristics.
func exprWidth(e verilog.Expr) int {
	switch n := e.(type) {
	case nil:
		return 1
	case *verilog.Number:
		return int(n.Val.Uint()) + 1
	case *verilog.Binary:
		// e.g. W-1 with parameter W: guess 32.
		return 32
	default:
		return 32
	}
}

// walker accumulates gate cost and returns combinational depth (ns).
type walker struct {
	s      *synthesizer
	widths map[string]int
}

func (w *walker) width(e verilog.Expr) int {
	switch n := e.(type) {
	case *verilog.Ident:
		if wd, ok := w.widths[n.Name]; ok {
			return wd
		}
		return 32
	case *verilog.Number:
		return n.Val.Width
	case *verilog.Index:
		return 1
	case *verilog.PartSelect:
		return 8
	case *verilog.Concat:
		total := 0
		for _, p := range n.Parts {
			total += w.width(p)
		}
		return total
	case *verilog.Binary:
		return max(w.width(n.X), w.width(n.Y))
	case *verilog.Ternary:
		return max(w.width(n.Then), w.width(n.Else))
	case *verilog.Unary:
		return w.width(n.X)
	default:
		return 32
	}
}

// gateCost tabulates NAND2-equivalents and delay for an operator at width n.
func gateCost(op string, n float64) (float64, float64) {
	switch op {
	case "+", "-":
		return 9 * n, 0.05*n + 0.4
	case "*":
		return 5.5 * n * n, 0.12*n + 1.2
	case "/", "%":
		return 18 * n * n, 0.5*n + 3
	case "<<", ">>", "<<<", ">>>":
		return 3 * n * math.Log2(n+2), 0.8
	case "&", "|", "^", "~^", "^~", "~&", "~|":
		return n, 0.15
	case "<", "<=", ">", ">=", "==", "!=", "===", "!==":
		return 3 * n, 0.04*n + 0.3
	case "&&", "||":
		return 2, 0.1
	default:
		return n, 0.3
	}
}

// isConst reports whether an expression is built from literals only.
func isConst(e verilog.Expr) bool {
	switch n := e.(type) {
	case *verilog.Number:
		return true
	case *verilog.Unary:
		return isConst(n.X)
	case *verilog.Binary:
		return isConst(n.X) && isConst(n.Y)
	default:
		return false
	}
}

// expr charges gates for one expression tree and returns its depth in ns.
func (w *walker) expr(e verilog.Expr, targetWidth int) float64 {
	switch n := e.(type) {
	case nil, *verilog.Ident, *verilog.Number, *verilog.StringLit:
		return 0
	case *verilog.Unary:
		d := w.expr(n.X, targetWidth)
		gates, dly := gateCost(n.Op, float64(w.width(n.X)))
		if n.Op == "~" || n.Op == "!" {
			gates = float64(w.width(n.X)) * 0.5
		}
		w.charge(n.Op, gates)
		return d + dly
	case *verilog.Binary:
		wd := float64(max(w.width(n.X), w.width(n.Y)))
		dx := w.expr(n.X, targetWidth)
		dy := w.expr(n.Y, targetWidth)
		if dy > dx {
			dx = dy
		}
		gates, dly := gateCost(n.Op, wd)
		// Shifts by a constant are wiring, not gates.
		if (n.Op == "<<" || n.Op == ">>" || n.Op == "<<<" || n.Op == ">>>") && isConst(n.Y) {
			gates, dly = 0, 0
		}
		w.charge(n.Op, gates)
		return dx + dly
	case *verilog.Ternary:
		wd := float64(targetWidth)
		d := w.expr(n.Cond, 1)
		dt := w.expr(n.Then, targetWidth)
		de := w.expr(n.Else, targetWidth)
		if de > dt {
			dt = de
		}
		w.charge("mux", 3*wd)
		return d + dt + 0.25
	case *verilog.Concat:
		var dmax float64
		for _, p := range n.Parts {
			if d := w.expr(p, w.width(p)); d > dmax {
				dmax = d
			}
		}
		return dmax
	case *verilog.Repeat:
		return w.expr(n.X, w.width(n.X))
	case *verilog.Index:
		d := w.expr(n.Idx, 8)
		w.charge("select", 2*float64(w.width(n.X))/8+2)
		return d + 0.5
	case *verilog.PartSelect:
		return w.expr(n.X, targetWidth)
	case *verilog.SysFunc:
		return 0
	default:
		return 0
	}
}

// charge adds gates for one operator instance.
func (w *walker) charge(op string, gates float64) {
	w.s.res.OpCounts[op]++
	w.s.res.Gates += gates
}

// stmt charges behavioral statements (always-block bodies) and returns the
// worst combinational depth.
func (w *walker) stmt(st verilog.Stmt) float64 {
	switch n := st.(type) {
	case nil:
		return 0
	case *verilog.Block:
		var dmax float64
		for _, s := range n.Stmts {
			if d := w.stmt(s); d > dmax {
				dmax = d
			}
		}
		return dmax
	case *verilog.Assign:
		wd := w.lhsWidth(n.LHS)
		return w.expr(n.RHS, wd)
	case *verilog.IfStmt:
		d := w.expr(n.Cond, 1)
		w.charge("mux", 3) // enable mux share
		dt := w.stmt(n.Then)
		de := w.stmt(n.Else)
		if de > dt {
			dt = de
		}
		return d + dt + 0.25
	case *verilog.CaseStmt:
		d := w.expr(n.Subject, w.width(n.Subject))
		var dmax float64
		for _, item := range n.Items {
			for _, le := range item.Exprs {
				w.expr(le, w.width(n.Subject))
				w.charge("cmp", 3*float64(w.width(n.Subject)))
			}
			if dd := w.stmt(item.Body); dd > dmax {
				dmax = dd
			}
		}
		return d + dmax + 0.4
	case *verilog.ForStmt:
		// Synthesizable for loops unroll; charge body × trip estimate.
		return w.stmt(n.Body) * 4
	case *verilog.DelayStmt:
		return w.stmt(n.Body)
	case *verilog.EventStmt:
		return w.stmt(n.Body)
	default:
		return 0
	}
}

func (w *walker) lhsWidth(e verilog.Expr) int { return w.width(e) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
