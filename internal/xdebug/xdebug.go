// Package xdebug is the cross-level RTL debugger: it aligns a statement-
// level trace of an untimed C behavioral model against a signal-level
// trace of an RTL candidate, localizes the first divergent (epoch,
// variable) pair, and feeds the resulting structured diagnosis into a
// guided-repair loop (the paper's §VI "High-Level Guided RTL Debugging"
// direction, carried past crosscheck's pass/fail verdicts to *where* and
// *why*).
//
// The two traces come from instrumented executions: the verilog
// simulator's commit-time probe (verilog.SetProbe) yields every signal
// transition with the source line of the committing statement, and the
// chdl interpreter's TraceAll hook yields every C variable write. The
// alignment model is epoch-based: stimulus vector i is driven at
// simulation time i and the design settles within that time step, so
// epoch i's end-of-step RTL values compare against the C functions
// evaluated on vector i. Because the probe reports transitions only,
// trace reconstruction carries values forward across epochs — a stuck
// output still diverges even though it never re-commits.
//
// Alignment covers output ports by name matching (each C function is
// named after the port it models) and extends to internal signals
// through the per-problem benchset.Problem.XAlign override table, so a
// divergence inside a multi-stage design localizes to the first wrong
// stage rather than the final output. XAlign C functions take the input
// ports in declaration order, exactly like the output functions.
package xdebug

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"llm4eda/internal/benchset"
	"llm4eda/internal/chdl"
	"llm4eda/internal/simfarm"
)

// Diagnosis outcomes.
const (
	// OutcomeDiverged: the traces diverge and a suspect statement was
	// localized.
	OutcomeDiverged = "diverged"
	// OutcomeCompile: the candidate does not compile; Fault carries the
	// front-end error verbatim.
	OutcomeCompile = "compile-error"
	// OutcomeSimFault: the candidate's simulation raised a runtime fault.
	OutcomeSimFault = "sim-fault"
	// OutcomeCFault: the C model itself faulted on a stimulus vector
	// (division by zero and friends). Surfaced as a diagnosis rather
	// than a silently skipped vector.
	OutcomeCFault = "c-fault"
)

// WavePoint is one epoch of the expected-vs-actual waveform window
// around a divergence.
type WavePoint struct {
	Epoch    int
	Expected int64
	Actual   uint64
	Known    bool // false when the RTL value carried X bits
	Diverged bool
}

// CStep is one traced C-variable write while evaluating the divergent
// observable on the divergent vector.
type CStep struct {
	Line int
	Name string
	V    int64
}

// Diagnosis is the structured outcome of one debug round: the first
// cross-level divergence with enough evidence (waveform window, C trace,
// suspect statement) for a guided repair prompt.
type Diagnosis struct {
	Problem string
	Round   int
	Outcome string

	// Epoch is the stimulus vector index of the first divergence (or of
	// the C fault for OutcomeCFault).
	Epoch int
	// Variable is the C-level name; Signal the aligned RTL signal
	// relative to the DUT instance.
	Variable string
	Signal   string
	// Inputs are the driven input-port values at the divergent epoch.
	Inputs map[string]uint64

	Expected    int64
	Actual      uint64
	ActualKnown bool

	// SuspectLine/SuspectStmt point at the candidate statement that last
	// committed the divergent signal (1-based line; 0 = unknown).
	SuspectLine int
	SuspectStmt string

	// Window is the expected-vs-actual waveform around the divergence.
	Window []WavePoint
	// CTrace is the statement-level C execution on the divergent cell.
	CTrace []CStep

	// Fault carries the error message for the non-diverged outcomes.
	Fault string
}

// Feedback renders the diagnosis as repair-loop feedback. Compile errors
// pass through verbatim (their "syntax error"/"lex error"/"elaboration
// error" wording routes the simulated model to syntactic repair); all
// other outcomes deliberately avoid those phrases so they route to
// functional repair.
func (d *Diagnosis) Feedback() string {
	switch d.Outcome {
	case OutcomeCompile:
		return d.Fault
	case OutcomeSimFault:
		return "simulation fault: " + d.Fault
	case OutcomeCFault:
		return fmt.Sprintf("high-level model fault at vector %d computing %s: %s",
			d.Epoch, d.Variable, d.Fault)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cross-level divergence at vector %d (%s): %s expected %d, RTL produced ",
		d.Epoch, formatInputs(d.Inputs), d.Variable, d.Expected)
	if d.ActualKnown {
		fmt.Fprintf(&b, "%d", d.Actual)
	} else {
		b.WriteString("x")
	}
	if d.SuspectLine > 0 {
		fmt.Fprintf(&b, "; suspect statement (line %d): %s", d.SuspectLine, d.SuspectStmt)
	}
	if len(d.Window) > 0 {
		b.WriteString("; expected/actual window:")
		for _, w := range d.Window {
			mark := ""
			if w.Diverged {
				mark = "!"
			}
			if w.Known {
				fmt.Fprintf(&b, " v%d=%d/%d%s", w.Epoch, w.Expected, w.Actual, mark)
			} else {
				fmt.Fprintf(&b, " v%d=%d/x%s", w.Epoch, w.Expected, mark)
			}
		}
	}
	return b.String()
}

func formatInputs(in map[string]uint64) string {
	names := make([]string, 0, len(in))
	for n := range in {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, in[n])
	}
	return strings.Join(parts, " ")
}

// observable is one aligned C-variable/RTL-signal pair.
type observable struct {
	name   string // C function name (and diagnosis variable name)
	signal string // RTL signal relative to the DUT instance
	width  int    // reference width (masks both sides of the compare)
	port   bool   // output port vs XAlign internal signal
}

// cell is one entry of the expected table: the C model's value, or the
// fault it raised computing it.
type cell struct {
	v       int64
	errMsg  string
	errLine int
}

// Harness is the candidate-independent half of a debug session: parsed C
// model, stimulus vectors, generated trace bench and the per-epoch
// expected table. Build once per problem, trace many candidates.
type Harness struct {
	Problem *benchset.Problem
	CModel  string

	prog    *chdl.Program
	inputs  []benchset.Port
	obs     []observable
	vectors []map[string]uint64
	bench   string
	want    [][]cell // [epoch][observable]
}

// NewHarness builds the debug harness for a combinational problem.
// cModel overrides the problem's bundled C model when non-empty;
// nVectors bounds the stimuli (default 24).
func NewHarness(p *benchset.Problem, cModel string, nVectors int) (*Harness, error) {
	if p == nil {
		return nil, fmt.Errorf("xdebug: nil problem")
	}
	if cModel == "" {
		cModel = p.CModel
	}
	if cModel == "" {
		return nil, fmt.Errorf("xdebug: problem %q has no behavioral reference", p.ID)
	}
	if len(p.Ports) == 0 {
		return nil, fmt.Errorf("xdebug: problem %q is not combinational", p.ID)
	}
	if nVectors <= 0 {
		nVectors = 24
	}
	prog, err := simfarm.ParseC(cModel)
	if err != nil {
		return nil, fmt.Errorf("xdebug: C model does not parse: %w", err)
	}

	h := &Harness{Problem: p, CModel: cModel, prog: prog}
	var outputs []benchset.Port
	for _, port := range p.Ports {
		if port.IsInput {
			h.inputs = append(h.inputs, port)
		} else {
			outputs = append(outputs, port)
		}
	}
	for _, out := range outputs {
		if prog.FindFunc(out.Name) == nil {
			return nil, fmt.Errorf("xdebug: C model lacks a function for output %q", out.Name)
		}
		h.obs = append(h.obs, observable{name: out.Name, signal: out.Name, width: out.Width, port: true})
	}

	h.vectors = benchset.Stimuli(h.inputs, nVectors)
	h.bench = buildBench(p.TopModule, h.inputs, outputs, h.vectors)

	// Resolve XAlign internal observables against the reference design:
	// the override table promises the signal exists there, and its
	// reference width masks the compare.
	if len(p.XAlign) > 0 {
		ref, err := simfarm.Default().Compile(benchTop, p.Reference, h.bench)
		if err != nil {
			return nil, fmt.Errorf("xdebug: reference does not elaborate: %w", err)
		}
		names := make([]string, 0, len(p.XAlign))
		for n := range p.XAlign {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if prog.FindFunc(n) == nil {
				return nil, fmt.Errorf("xdebug: C model lacks XAlign function %q", n)
			}
			sig, ok := ref.Design.SignalByName(benchTop + "." + benchInst + "." + p.XAlign[n])
			if !ok {
				return nil, fmt.Errorf("xdebug: reference lacks XAlign signal %q", p.XAlign[n])
			}
			h.obs = append(h.obs, observable{name: n, signal: p.XAlign[n], width: sig.Width})
		}
	}

	// Expected table: one fresh interpreter per cell (globals persist
	// across calls otherwise). A faulting cell is recorded as data, not
	// a harness error — the debug loop surfaces it as a diagnosis.
	h.want = make([][]cell, len(h.vectors))
	for vi := range h.vectors {
		h.want[vi] = make([]cell, len(h.obs))
		args := h.args(vi)
		for oi, ob := range h.obs {
			interp, err := chdl.NewInterp(prog)
			if err != nil {
				return nil, err
			}
			v, err := interp.CallInts(ob.name, args...)
			if err != nil {
				c := cell{errMsg: err.Error()}
				var rt *chdl.RuntimeError
				if errors.As(err, &rt) {
					c.errLine, c.errMsg = rt.Line, rt.Msg
				}
				h.want[vi][oi] = c
				continue
			}
			h.want[vi][oi] = cell{v: v & int64(benchset.MaskBits(ob.width))}
		}
	}
	return h, nil
}

// args builds the C call arguments (input ports in declaration order)
// for one stimulus vector.
func (h *Harness) args(vi int) []int64 {
	args := make([]int64, len(h.inputs))
	for i, in := range h.inputs {
		args[i] = int64(h.vectors[vi][in.Name])
	}
	return args
}

const (
	benchTop  = "xdbg"
	benchInst = "duv"
)

// buildBench emits the trace bench: drive vector i at time i, settle one
// time unit. No $display — observation happens through the probe, so
// the bench only has to schedule the stimuli.
func buildBench(top string, inputs, outputs []benchset.Port, vectors []map[string]uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s;\n", benchTop)
	var conns []string
	for _, in := range inputs {
		if in.Width > 1 {
			fmt.Fprintf(&b, "  reg [%d:0] %s;\n", in.Width-1, in.Name)
		} else {
			fmt.Fprintf(&b, "  reg %s;\n", in.Name)
		}
		conns = append(conns, fmt.Sprintf(".%s(%s)", in.Name, in.Name))
	}
	for _, out := range outputs {
		if out.Width > 1 {
			fmt.Fprintf(&b, "  wire [%d:0] %s;\n", out.Width-1, out.Name)
		} else {
			fmt.Fprintf(&b, "  wire %s;\n", out.Name)
		}
		conns = append(conns, fmt.Sprintf(".%s(%s)", out.Name, out.Name))
	}
	fmt.Fprintf(&b, "  %s %s(%s);\n", top, benchInst, strings.Join(conns, ", "))
	b.WriteString("  initial begin\n")
	for _, vec := range vectors {
		for _, in := range inputs {
			fmt.Fprintf(&b, "    %s = %d'd%d;\n", in.Name, in.Width, vec[in.Name])
		}
		b.WriteString("    #1;\n")
	}
	b.WriteString("    $finish;\n  end\nendmodule\n")
	return b.String()
}
