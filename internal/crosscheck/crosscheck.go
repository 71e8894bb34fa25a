// Package crosscheck implements the paper's §VI future-work direction
// "High-Level Guided RTL Debugging": because LLMs are far more reliable
// at untimed behavioral models (C) than at HDL, a generated C model can
// serve as a reference for cross-level comparison — RTL simulation
// outputs are checked against high-level execution on shared stimuli,
// catching functional errors in generated HDL without a hand-written
// testbench.
//
// The checker supports the suite's combinational problems: it drives the
// candidate's ports with deterministic stimulus vectors in a generated
// bench, executes the C model on the same vectors through the chdl
// interpreter, and reports every disagreement with its input vector —
// localized evidence a debugging loop can feed back to the model.
package crosscheck

import (
	"context"
	"fmt"
	"strings"

	"llm4eda/internal/benchset"
	"llm4eda/internal/chdl"
	"llm4eda/internal/core"
	"llm4eda/internal/llm"
	"llm4eda/internal/simfarm"
	"llm4eda/internal/verilog"
)

// Mismatch is one cross-level disagreement.
type Mismatch struct {
	// Inputs maps input port names to the driven values.
	Inputs map[string]uint64
	// Port is the disagreeing output.
	Port string
	RTL  uint64
	// RTLKnown is false when the RTL output carried X bits.
	RTLKnown bool
	HighLvl  int64
}

// Result reports one cross-level validation.
type Result struct {
	// Vectors is the number of stimulus vectors compared.
	Vectors int
	// Mismatches lists every disagreement (empty = cross-level clean).
	Mismatches []Mismatch
	// CModel is the behavioral model used (generated or provided).
	CModel string
}

// Clean reports whether RTL and the high-level model agreed everywhere.
func (r *Result) Clean() bool { return len(r.Mismatches) == 0 }

// GenerateModel asks the LLM for an untimed C model of the problem. The
// paper's premise is that this generation is far more reliable than HDL
// generation; the simulated model reflects that (difficulty is treated as
// minimal for untimed C).
func GenerateModel(model llm.Model, p *benchset.Problem) (string, error) {
	if p.CModel == "" {
		return "", fmt.Errorf("crosscheck: problem %q has no behavioral reference", p.ID)
	}
	resp, err := model.Generate(llm.Request{
		System: llm.SystemHLSExpert,
		Prompt: "Write an untimed C model of this specification, one function per output:\n\n" + p.Spec,
		Task:   llm.CModelGen{Spec: p.Spec, Reference: p.CModel},
	})
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}

// refHarness is the candidate-independent half of a validation: the
// parsed C model's expected outputs on every stimulus vector, plus the
// generated bench all candidates share. Building it once and fanning
// candidates out over it is the compile-once/run-many shape — the
// high-level reference is "solved" a single time per problem.
type refHarness struct {
	inputs, outputs []benchset.Port
	vectors         []map[string]uint64
	bench           string
	// want[vi][oi] is the C model's masked expected value.
	want [][]int64
}

// buildHarness parses the C model, generates stimuli and precomputes the
// expected output table.
func buildHarness(p *benchset.Problem, cModel string, nVectors int) (*refHarness, error) {
	if len(p.Ports) == 0 {
		return nil, fmt.Errorf("crosscheck: problem %q is not combinational", p.ID)
	}
	if nVectors <= 0 {
		nVectors = 32
	}
	prog, err := simfarm.ParseC(cModel)
	if err != nil {
		return nil, fmt.Errorf("crosscheck: C model does not parse: %w", err)
	}

	h := &refHarness{}
	for _, port := range p.Ports {
		if port.IsInput {
			h.inputs = append(h.inputs, port)
		} else {
			h.outputs = append(h.outputs, port)
		}
	}
	for _, out := range h.outputs {
		if prog.FindFunc(out.Name) == nil {
			return nil, fmt.Errorf("crosscheck: C model lacks a function for output %q", out.Name)
		}
	}

	h.vectors = benchset.Stimuli(h.inputs, nVectors)
	h.bench = buildBench(p.TopModule, h.inputs, h.outputs, h.vectors)
	h.want = make([][]int64, len(h.vectors))
	for vi, vec := range h.vectors {
		args := make([]int64, len(h.inputs))
		for i, in := range h.inputs {
			args[i] = int64(vec[in.Name])
		}
		h.want[vi] = make([]int64, len(h.outputs))
		for oi, out := range h.outputs {
			interp, err := chdl.NewInterp(prog)
			if err != nil {
				return nil, err
			}
			want, err := interp.CallInts(out.Name, args...)
			if err != nil {
				return nil, fmt.Errorf("crosscheck: C model failed on %v: %w", args, err)
			}
			h.want[vi][oi] = want & int64(benchset.MaskBits(out.Width))
		}
	}
	return h, nil
}

// check compares one candidate's simulation outcome against the expected
// table.
func (h *refHarness) check(cModel string, sim *verilog.SimResult, simErr error) (*Result, error) {
	if simErr != nil {
		return nil, fmt.Errorf("crosscheck: candidate does not compile: %w", simErr)
	}
	if sim.RuntimeErr != nil {
		return nil, fmt.Errorf("crosscheck: candidate simulation failed: %w", sim.RuntimeErr)
	}
	rtlVals, err := parseBenchOutput(sim.Output, len(h.vectors), h.outputs)
	if err != nil {
		return nil, err
	}
	res := &Result{Vectors: len(h.vectors), CModel: cModel}
	for vi, vec := range h.vectors {
		for oi, out := range h.outputs {
			got := rtlVals[vi][oi]
			known := got.IsFullyKnown()
			if !known || int64(got.Uint()) != h.want[vi][oi] {
				res.Mismatches = append(res.Mismatches, Mismatch{
					Inputs:   vec,
					Port:     out.Name,
					RTL:      got.Uint(),
					RTLKnown: known,
					HighLvl:  h.want[vi][oi],
				})
			}
		}
	}
	return res, nil
}

// Validate cross-checks an RTL candidate against a C behavioral model on
// deterministic stimulus vectors. nVectors bounds the stimuli (default 32).
func Validate(ctx context.Context, candidate string, p *benchset.Problem, cModel string, nVectors int) (*Result, error) {
	batch, err := ValidateBatch(ctx, []string{candidate}, p, cModel, nVectors, 1)
	if err != nil {
		return nil, err
	}
	return batch[0].Res, batch[0].Err
}

// BatchItem is one candidate's outcome within a ValidateBatch call.
type BatchItem struct {
	Res *Result
	// Err carries per-candidate failures (compile error, simulation
	// fault); harness-level failures abort the whole batch instead.
	Err error
}

// ValidateBatch cross-checks many RTL candidates against one C behavioral
// model. The model's expected-output table is computed once, the shared
// stimulus bench is compiled once, and the candidates simulate through
// simfarm.RunManyCtx (workers <= 0 selects GOMAXPROCS). Results are in
// candidate order and match serial Validate calls, with one ordering
// caveat: C-model failures are harness-level and surface before any
// candidate is compiled. A cancelled ctx aborts the batch within one
// simulation and returns ctx.Err(); per-candidate verdicts stream to the
// context's event sink.
func ValidateBatch(ctx context.Context, candidates []string, p *benchset.Problem, cModel string, nVectors, workers int) ([]BatchItem, error) {
	h, err := buildHarness(p, cModel, nVectors)
	if err != nil {
		return nil, err
	}
	sink := core.SinkOf(ctx)
	jobs := make([]simfarm.Job, len(candidates))
	for i, cand := range candidates {
		jobs[i] = simfarm.Job{DUT: cand, TB: h.bench, Top: "xtb",
			DUTTop: p.TopModule, Lint: true, Opts: verilog.SimOptions{}}
	}
	results, err := simfarm.RunManyCtx(ctx, jobs, workers)
	if err != nil {
		return nil, err
	}
	items := make([]BatchItem, len(candidates))
	for i, r := range results {
		items[i].Res, items[i].Err = h.check(cModel, r.Res, r.Err)
		ev := core.Event{
			Kind: core.EventCandidate, Framework: "crosscheck", Phase: p.ID,
			Seq: i + 1, Total: len(candidates),
		}
		if items[i].Err != nil {
			ev.Detail = items[i].Err.Error()
		} else {
			ev.OK = items[i].Res.Clean()
			ev.Detail = fmt.Sprintf("%d mismatches over %d vectors",
				len(items[i].Res.Mismatches), items[i].Res.Vectors)
		}
		sink.Emit(ev)
	}
	return items, nil
}

// buildBench emits the stimulus bench printing "XCHK <v> <port> <%b>".
func buildBench(top string, inputs, outputs []benchset.Port, vectors []map[string]uint64) string {
	var b strings.Builder
	b.WriteString("module xtb;\n")
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
	fmt.Fprintf(&b, "  %s dut(%s);\n", top, strings.Join(conns, ", "))
	b.WriteString("  initial begin\n")
	for vi, vec := range vectors {
		for _, in := range inputs {
			fmt.Fprintf(&b, "    %s = %d'd%d;\n", in.Name, in.Width, vec[in.Name])
		}
		b.WriteString("    #1;\n")
		for _, out := range outputs {
			fmt.Fprintf(&b, "    $display(\"XCHK %d %s %%b\", %s);\n", vi, out.Name, out.Name)
		}
	}
	b.WriteString("    $finish;\n  end\nendmodule\n")
	return b.String()
}

// parseBenchOutput recovers per-vector, per-output values.
func parseBenchOutput(out string, nVectors int, outputs []benchset.Port) ([][]verilog.Value, error) {
	vals := make([][]verilog.Value, nVectors)
	for i := range vals {
		vals[i] = make([]verilog.Value, len(outputs))
		for j, o := range outputs {
			vals[i][j] = verilog.AllX(o.Width)
		}
	}
	outIdx := map[string]int{}
	for j, o := range outputs {
		outIdx[o.Name] = j
	}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 4 || fields[0] != "XCHK" {
			continue
		}
		vi := atoi(fields[1])
		j, ok := outIdx[fields[2]]
		if vi < 0 || vi >= nVectors || !ok {
			continue
		}
		v, err := parseBinary(fields[3], outputs[j].Width)
		if err != nil {
			return nil, err
		}
		vals[vi][j] = v
	}
	return vals, nil
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// parseBinary reads a %b-formatted value (possibly with x bits).
func parseBinary(s string, width int) (verilog.Value, error) {
	var v verilog.Value
	v.Width = width
	for _, c := range s {
		v.Bits <<= 1
		v.Unknown <<= 1
		switch c {
		case '0':
		case '1':
			v.Bits |= 1
		case 'x', 'z':
			v.Unknown |= 1
		default:
			return verilog.Value{}, fmt.Errorf("crosscheck: bad binary output %q", s)
		}
	}
	return v, nil
}
