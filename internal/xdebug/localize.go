package xdebug

import (
	"strings"

	"llm4eda/internal/benchset"
	"llm4eda/internal/chdl"
	"llm4eda/internal/verilog"
)

// windowRadius bounds the expected-vs-actual waveform excerpt around a
// divergence (epochs on each side).
const windowRadius = 2

// maxCTrace caps the statement-level C trace carried in a diagnosis.
const maxCTrace = 32

// localize finds the first divergent (epoch, variable) pair and maps it
// back to the candidate's suspect statement. It binary-searches the
// monotone predicate "the aligned traces diverge somewhere in epochs
// [0..k]" for the smallest divergent prefix, then picks, within that
// epoch, the divergent observable whose wrong value was committed first
// (event order), so a corrupted internal stage outranks the outputs it
// poisons. Returns nil when the traces align everywhere.
//
// A C-model fault at or before the first divergence takes precedence:
// the vector never produced a trustworthy expectation, so it surfaces as
// an OutcomeCFault diagnosis instead of a divergence verdict.
func (h *Harness) localize(tr *rtlTrace, candidate string) *Diagnosis {
	n := len(h.vectors)

	// Earliest C-model fault, if any.
	fe, fo := -1, -1
	for e := 0; e < n && fe < 0; e++ {
		for oi := range h.obs {
			if h.want[e][oi].errMsg != "" {
				fe, fo = e, oi
				break
			}
		}
	}

	// Per-epoch divergence matrix and its prefix sums.
	div := make([][]bool, n)
	pre := make([]int, n+1)
	for e := 0; e < n; e++ {
		div[e] = make([]bool, len(h.obs))
		c := 0
		for oi, ob := range h.obs {
			if h.want[e][oi].errMsg != "" {
				continue
			}
			got := tr.vals[e][oi]
			if !got.IsFullyKnown() || int64(got.Uint()&benchset.MaskBits(ob.width)) != h.want[e][oi].v {
				div[e][oi] = true
				c++
			}
		}
		pre[e+1] = pre[e] + c
	}
	if pre[n] == 0 {
		if fe >= 0 {
			return h.cFaultDiagnosis(fe, fo)
		}
		return nil
	}

	// Binary search the smallest epoch whose aligned prefix diverges.
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if pre[mid+1] > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	e := lo
	if fe >= 0 && fe <= e {
		return h.cFaultDiagnosis(fe, fo)
	}

	// First-committed divergent observable in the epoch; observables
	// that only carry a stale wrong value (no in-epoch commit) lose to
	// any that actually committed.
	best, bestSeq := -1, -1
	for oi := range h.obs {
		if !div[e][oi] {
			continue
		}
		seq := tr.seqs[e][oi]
		if best == -1 {
			best, bestSeq = oi, seq
			continue
		}
		if seq >= 0 && (bestSeq < 0 || seq < bestSeq) {
			best, bestSeq = oi, seq
		}
	}

	ob := h.obs[best]
	got := tr.vals[e][best]
	d := &Diagnosis{
		Problem:     h.Problem.ID,
		Outcome:     OutcomeDiverged,
		Epoch:       e,
		Variable:    ob.name,
		Signal:      ob.signal,
		Inputs:      h.vectors[e],
		Expected:    h.want[e][best].v,
		Actual:      got.Uint() & benchset.MaskBits(ob.width),
		ActualKnown: got.IsFullyKnown(),
	}

	// Suspect statement: the last commit to the signal at or before the
	// divergent epoch; a never-committed signal falls back to a static
	// scan for its driver.
	var line int32
	for k := e; k >= 0 && line == 0; k-- {
		line = tr.lines[k][best]
	}
	if line == 0 {
		line = int32(driverLine(candidate, ob.signal))
	}
	d.SuspectLine = int(line)
	d.SuspectStmt = lineText(candidate, d.SuspectLine)

	// Waveform window around the divergence.
	for k := e - windowRadius; k <= e+windowRadius; k++ {
		if k < 0 || k >= n || h.want[k][best].errMsg != "" {
			continue
		}
		v := tr.vals[k][best]
		d.Window = append(d.Window, WavePoint{
			Epoch:    k,
			Expected: h.want[k][best].v,
			Actual:   v.Uint() & benchset.MaskBits(ob.width),
			Known:    v.IsFullyKnown(),
			Diverged: div[k][best],
		})
	}

	d.CTrace = h.cTrace(e, best)
	return d
}

// cFaultDiagnosis wraps a C-model fault cell as a structured outcome.
func (h *Harness) cFaultDiagnosis(e, oi int) *Diagnosis {
	c := h.want[e][oi]
	d := &Diagnosis{
		Problem:  h.Problem.ID,
		Outcome:  OutcomeCFault,
		Epoch:    e,
		Variable: h.obs[oi].name,
		Signal:   h.obs[oi].signal,
		Inputs:   h.vectors[e],
		Fault:    c.errMsg,
	}
	if c.errLine > 0 {
		d.SuspectLine = c.errLine
		d.SuspectStmt = lineText(h.CModel, c.errLine)
	}
	return d
}

// cTrace re-executes the divergent cell with full statement-level
// tracing, giving the repair prompt the C model's view of the same
// computation.
func (h *Harness) cTrace(e, oi int) []CStep {
	interp, err := chdl.NewInterp(h.prog)
	if err != nil {
		return nil
	}
	var steps []CStep
	interp.TraceAll = true
	interp.Trace = func(line int, name string, v int64) {
		if len(steps) < maxCTrace {
			steps = append(steps, CStep{Line: line, Name: name, V: v})
		}
	}
	interp.CallInts(h.obs[oi].name, h.args(e)...)
	return steps
}

// driverLine statically scans the candidate for the first statement
// driving the named signal: the fallback when the probe never saw a
// commit (e.g. the driver was dropped entirely).
func driverLine(src, name string) int {
	f, err := verilog.Parse(src)
	if err != nil {
		return 0
	}
	for _, m := range f.Modules {
		for _, it := range m.Items {
			switch n := it.(type) {
			case *verilog.NetDecl:
				if n.Init != nil && n.Name == name {
					return n.Line
				}
			case *verilog.ContAssign:
				if lhsWrites(n.LHS, name) {
					return n.Line
				}
			case *verilog.AlwaysBlock:
				if l := stmtWrites(n.Body, name); l > 0 {
					return l
				}
			}
		}
	}
	return 0
}

// stmtWrites walks a behavioral statement for the first assignment to
// the named signal, returning its line (0 = none).
func stmtWrites(s verilog.Stmt, name string) int {
	switch n := s.(type) {
	case *verilog.Block:
		for _, st := range n.Stmts {
			if l := stmtWrites(st, name); l > 0 {
				return l
			}
		}
	case *verilog.Assign:
		if lhsWrites(n.LHS, name) {
			return n.Line
		}
	case *verilog.IfStmt:
		if l := stmtWrites(n.Then, name); l > 0 {
			return l
		}
		if n.Else != nil {
			return stmtWrites(n.Else, name)
		}
	case *verilog.CaseStmt:
		for _, it := range n.Items {
			if l := stmtWrites(it.Body, name); l > 0 {
				return l
			}
		}
	case *verilog.ForStmt:
		return stmtWrites(n.Body, name)
	case *verilog.WhileStmt:
		return stmtWrites(n.Body, name)
	case *verilog.RepeatStmt:
		return stmtWrites(n.Body, name)
	case *verilog.ForeverStmt:
		return stmtWrites(n.Body, name)
	}
	return 0
}

// lhsWrites reports whether an lvalue expression targets the named
// signal (directly or through a select/concat).
func lhsWrites(e verilog.Expr, name string) bool {
	switch n := e.(type) {
	case *verilog.Ident:
		return n.Name == name
	case *verilog.Index:
		return lhsWrites(n.X, name)
	case *verilog.PartSelect:
		return lhsWrites(n.X, name)
	case *verilog.Concat:
		for _, p := range n.Parts {
			if lhsWrites(p, name) {
				return true
			}
		}
	}
	return false
}

// lineText returns the trimmed 1-based source line (empty if out of
// range).
func lineText(src string, line int) string {
	if line <= 0 {
		return ""
	}
	lines := strings.Split(src, "\n")
	if line > len(lines) {
		return ""
	}
	return strings.TrimSpace(lines[line-1])
}
