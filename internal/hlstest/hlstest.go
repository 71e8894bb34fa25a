// Package hlstest implements the paper's Fig. 3 case study: efficient
// testing of behavioral discrepancies between a kernel's CPU execution and
// its FPGA (RTL) deployment. The five stages map onto the figure:
//
//  1. Testbench modification — the LLM strips HLS-unsupported constructs
//     from the C testbench.
//  2. Code instrumentation — backward slicing from the return value finds
//     the key variables, which the interpreter then traces.
//  3. Spectra monitoring — branch counts and key-variable traces hash into
//     an execution spectrum per input.
//  4. Test input generation — dynamic mutation (bit/byte/element, breadth)
//     plus an LLM reasoning chain proposing boundary inputs (depth).
//  5. Redundancy filtering — inputs whose spectrum was already exercised
//     skip the expensive hardware simulation.
package hlstest

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"

	"llm4eda/internal/chdl"
	"llm4eda/internal/core"
	"llm4eda/internal/hls"
	"llm4eda/internal/llm"
	"llm4eda/internal/simfarm"
)

// Config parameterizes a testing campaign.
type Config struct {
	// RunSpec carries the shared execution envelope; Seed fixes the
	// mutation stream.
	core.RunSpec
	Model llm.Model
	// WidthBits is the RTL datapath width; narrow widths are the paper's
	// "customized bit widths in FPGA deployment" discrepancy source.
	WidthBits int
	// SimBudget bounds hardware (RTL) simulations (default 40). CPU-side
	// evaluations are bounded at 50x SimBudget, so a campaign whose
	// filter skips everything still terminates.
	SimBudget int
	// UseSpectra enables spectra-guided mutation scheduling (ablation).
	UseSpectra bool
	// UseFilter enables redundancy filtering (ablation).
	UseFilter bool
	// UseReasoning enables the LLM boundary-value reasoning chain.
	UseReasoning bool
}

func (c Config) withDefaults() Config {
	if c.SimBudget == 0 {
		c.SimBudget = 40
	}
	if c.WidthBits == 0 {
		c.WidthBits = 16
	}
	return c
}

// Discrepancy is one confirmed CPU-vs-RTL behavioral divergence.
type Discrepancy struct {
	Inputs []int64
	CPU    int64
	RTL    int64
}

// Result summarizes a campaign.
type Result struct {
	KeyVariables    []string
	AdaptedTB       string
	Discrepancies   []Discrepancy
	SimsRun         int
	SimsSkipped     int
	InputsGenerated int
}

// Run executes the campaign on one kernel. tbSource is the original C
// testbench (may be empty); seeds are the initial input vectors. ctx is
// checked between inputs; confirmed discrepancies stream to the context's
// event sink.
func Run(ctx context.Context, source, tbSource, kernel string, seeds [][]int64, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	sink := core.SinkOf(ctx)
	res := &Result{}

	// Stage 1: testbench adaptation.
	if tbSource != "" && cfg.Model != nil {
		resp, err := cfg.Model.Generate(llm.Request{
			System: llm.SystemHLSExpert,
			Prompt: "Adapt this C testbench so the HLS tool can compile it.\n\n" + tbSource,
			Task:   llm.TBAdapt{Source: tbSource},
		})
		if err == nil {
			res.AdaptedTB = resp.Text
		}
	}

	prog, err := simfarm.ParseC(source)
	if err != nil {
		return nil, fmt.Errorf("hlstest: kernel does not parse: %w", err)
	}
	fn := prog.FindFunc(kernel)
	if fn == nil {
		return nil, fmt.Errorf("hlstest: kernel %q not found", kernel)
	}
	design, err := hls.Synthesize(prog, kernel, hls.Options{WidthBits: cfg.WidthBits})
	if err != nil {
		return nil, fmt.Errorf("hlstest: kernel must be synthesizable first: %w", err)
	}

	// Stage 2: backward slicing.
	res.KeyVariables = BackwardSlice(fn)

	rng := newRNG(cfg.Seed)
	queue := make([][]int64, 0, len(seeds))
	for _, s := range seeds {
		queue = append(queue, append([]int64(nil), s...))
	}
	if len(queue) == 0 {
		queue = append(queue, make([]int64, len(fn.Params)))
	}

	// Stage 4 (depth): reasoning-chain boundary inputs derived from the
	// customized width.
	if cfg.UseReasoning {
		queue = append(queue, boundaryInputs(len(fn.Params), cfg.WidthBits)...)
	}

	spectraSeen := map[uint64]bool{}
	tried := map[string]bool{}

	for len(queue) > 0 && res.SimsRun < cfg.SimBudget && res.InputsGenerated < 50*cfg.SimBudget {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		vec := queue[0]
		queue = queue[1:]
		key := vecKey(vec)
		if tried[key] {
			continue
		}
		tried[key] = true
		res.InputsGenerated++

		// Stage 3: CPU execution with spectra monitoring.
		spec, cpu, cpuErr := runWithSpectra(prog, kernel, res.KeyVariables, vec, cfg.WidthBits)
		if cpuErr != nil {
			continue // invalid input for the kernel; skip
		}
		fresh := !spectraSeen[spec]
		spectraSeen[spec] = true

		// Stage 5: redundancy filtering.
		if cfg.UseFilter && !fresh {
			res.SimsSkipped++
		} else {
			res.SimsRun++
			sims, err := hls.CoSimulate(ctx, design, prog, kernel, [][]int64{vec})
			if err == nil && len(sims) == 1 && sims[0].RTLValid {
				if sims[0].RTL != cpu {
					res.Discrepancies = append(res.Discrepancies, Discrepancy{
						Inputs: append([]int64(nil), vec...), CPU: cpu, RTL: sims[0].RTL,
					})
					sink.Emit(core.Event{
						Kind: core.EventCandidate, Framework: "hlstest", Phase: "discrepancy",
						Seq: len(res.Discrepancies), OK: true,
						Detail: fmt.Sprintf("inputs=%v cpu=%d rtl=%d", vec, cpu, sims[0].RTL),
					})
				}
			}
		}

		// Stage 4 (breadth): dynamic mutation. Spectra-guided mode only
		// expands inputs that reached new spectra; the unguided mode
		// expands everything.
		if !cfg.UseSpectra || fresh {
			queue = append(queue, mutate(rng, vec, cfg.WidthBits)...)
		}
	}
	return res, nil
}

// BackwardSlice returns the variables that (transitively) feed the
// function's return values, including control dependences.
func BackwardSlice(fn *chdl.FuncDecl) []string {
	// Collect direct dependences: target -> read set, plus control reads.
	deps := map[string]map[string]bool{}
	addDep := func(dst string, srcs map[string]bool) {
		if deps[dst] == nil {
			deps[dst] = map[string]bool{}
		}
		for s := range srcs {
			deps[dst][s] = true
		}
	}
	want := map[string]bool{}

	var exprReads func(e chdl.Expr, acc map[string]bool)
	exprReads = func(e chdl.Expr, acc map[string]bool) {
		switch n := e.(type) {
		case nil:
		case *chdl.VarRef:
			acc[n.Name] = true
		case *chdl.BinExpr:
			exprReads(n.X, acc)
			exprReads(n.Y, acc)
		case *chdl.UnExpr:
			exprReads(n.X, acc)
		case *chdl.PostfixExpr:
			exprReads(n.X, acc)
		case *chdl.AssignExpr:
			exprReads(n.RHS, acc)
			if ix, ok := n.LHS.(*chdl.IndexExpr); ok {
				exprReads(ix.Idx, acc)
			}
		case *chdl.CondExpr:
			exprReads(n.Cond, acc)
			exprReads(n.Then, acc)
			exprReads(n.Else, acc)
		case *chdl.IndexExpr:
			exprReads(n.X, acc)
			exprReads(n.Idx, acc)
		case *chdl.CallExpr:
			for _, a := range n.Args {
				exprReads(a, acc)
			}
		case *chdl.CastExpr:
			exprReads(n.X, acc)
		}
	}

	assignTarget := func(e chdl.Expr) string {
		switch n := e.(type) {
		case *chdl.VarRef:
			return n.Name
		case *chdl.IndexExpr:
			if vr, ok := n.X.(*chdl.VarRef); ok {
				return vr.Name
			}
		}
		return ""
	}

	var walk func(st chdl.Stmt, ctrl map[string]bool)
	collectAssigns := func(e chdl.Expr, ctrl map[string]bool) {
		if asn, ok := e.(*chdl.AssignExpr); ok {
			dst := assignTarget(asn.LHS)
			if dst == "" {
				return
			}
			reads := map[string]bool{}
			exprReads(asn.RHS, reads)
			if asn.Op != "=" {
				exprReads(asn.LHS, reads)
			}
			for c := range ctrl {
				reads[c] = true
			}
			addDep(dst, reads)
		}
		if pf, ok := e.(*chdl.PostfixExpr); ok {
			dst := assignTarget(pf.X)
			if dst != "" {
				reads := map[string]bool{dst: true}
				for c := range ctrl {
					reads[c] = true
				}
				addDep(dst, reads)
			}
		}
	}
	walk = func(st chdl.Stmt, ctrl map[string]bool) {
		switch n := st.(type) {
		case nil:
		case *chdl.BlockStmt:
			for _, s := range n.Stmts {
				walk(s, ctrl)
			}
		case *chdl.DeclStmt:
			for _, d := range n.Decls {
				reads := map[string]bool{}
				exprReads(d.Init, reads)
				for _, e := range d.InitList {
					exprReads(e, reads)
				}
				for c := range ctrl {
					reads[c] = true
				}
				addDep(d.Name, reads)
			}
		case *chdl.ExprStmt:
			collectAssigns(n.X, ctrl)
		case *chdl.IfStmt:
			sub := cloneSet(ctrl)
			exprReads(n.Cond, sub)
			walk(n.Then, sub)
			walk(n.Else, sub)
		case *chdl.ForStmt:
			sub := cloneSet(ctrl)
			exprReads(n.Cond, sub)
			if n.Init != nil {
				walk(n.Init, ctrl)
			}
			if n.Post != nil {
				collectAssigns(n.Post, sub)
			}
			walk(n.Body, sub)
		case *chdl.WhileStmt:
			sub := cloneSet(ctrl)
			exprReads(n.Cond, sub)
			walk(n.Body, sub)
		case *chdl.DoStmt:
			sub := cloneSet(ctrl)
			exprReads(n.Cond, sub)
			walk(n.Body, sub)
		case *chdl.ReturnStmt:
			reads := map[string]bool{}
			exprReads(n.X, reads)
			for c := range ctrl {
				reads[c] = true
			}
			for r := range reads {
				want[r] = true
			}
		}
	}
	walk(fn.Body, map[string]bool{})

	// Fixpoint closure.
	changed := true
	for changed {
		changed = false
		for v := range want {
			for d := range deps[v] {
				if !want[d] {
					want[d] = true
					changed = true
				}
			}
		}
	}
	out := make([]string, 0, len(want))
	for v := range want {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func cloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// runWithSpectra executes the kernel on the CPU model, collecting the
// execution spectrum: branch counts plus coarse per-variable features
// (sign mix and the magnitude bucket relative to the deployment width).
// Spectra are deliberately coarse — they classify executions by behavioral
// shape, so that inputs exercising the same shape can skip the expensive
// hardware simulation (stage 5), while width-boundary-crossing inputs land
// in fresh buckets and do get simulated.
func runWithSpectra(prog *chdl.Program, kernel string, keyVars []string, vec []int64, width int) (uint64, int64, error) {
	in, err := chdl.NewInterp(prog)
	if err != nil {
		return 0, 0, err
	}
	type feature struct {
		count   uint64
		maxAbs  uint64
		sawNeg  bool
		sawZero bool
	}
	feats := map[string]*feature{}
	in.TraceVars = map[string]bool{}
	for _, v := range keyVars {
		in.TraceVars[v] = true
		feats[v] = &feature{}
	}
	in.Trace = func(line int, name string, v int64) {
		f := feats[name]
		if f == nil {
			return
		}
		f.count++
		abs := uint64(v)
		if v < 0 {
			f.sawNeg = true
			abs = uint64(-v)
		}
		if v == 0 {
			f.sawZero = true
		}
		if abs > f.maxAbs {
			f.maxAbs = abs
		}
	}
	ret, err := in.CallInts(kernel, vec...)
	if err != nil {
		return 0, 0, err
	}
	h := fnv.New64a()
	// Branch spectrum, stable order.
	lines := make([]int, 0, len(in.BranchCount))
	for l := range in.BranchCount {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	for _, l := range lines {
		var buf [8]byte
		put64(&buf, uint64(l)<<40|uint64(in.BranchCount[l]))
		_, _ = h.Write(buf[:])
	}
	// Variable features, stable order.
	half := uint64(1) << uint(width-1)
	full := uint64(1) << uint(width)
	names := make([]string, 0, len(feats))
	for n := range feats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := feats[n]
		bucket := uint64(0)
		switch {
		case f.maxAbs < half:
			bucket = 0
		case f.maxAbs < full:
			bucket = 1
		case f.maxAbs < full<<8:
			bucket = 2
		default:
			bucket = 3
		}
		var enc uint64 = bucket
		if f.sawNeg {
			enc |= 1 << 8
		}
		if f.sawZero {
			enc |= 1 << 9
		}
		enc |= f.count << 16 // trip-count shape
		var buf [8]byte
		put64(&buf, enc)
		_, _ = h.Write(buf[:])
		_, _ = h.Write([]byte(n))
	}
	return h.Sum64(), ret, nil
}

func put64(buf *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
}

// mutate produces bit-, byte- and element-level variants of an input
// vector (the paper's P1/P2/P3 mutation dimensions).
func mutate(r *rng, vec []int64, width int) [][]int64 {
	if len(vec) == 0 {
		return nil
	}
	var out [][]int64
	clone := func() []int64 { return append([]int64(nil), vec...) }
	// P1: bit mutation.
	for k := 0; k < 2; k++ {
		m := clone()
		i := r.intn(len(m))
		m[i] ^= 1 << uint(r.intn(width+2))
		out = append(out, m)
	}
	// P2: byte mutation.
	m := clone()
	i := r.intn(len(m))
	m[i] ^= int64(r.intn(256)) << uint(8*r.intn(width/8+1))
	out = append(out, m)
	// P3: element mutation (replace / scale).
	m = clone()
	i = r.intn(len(m))
	switch r.intn(3) {
	case 0:
		m[i] = int64(r.intn(1 << uint(width)))
	case 1:
		m[i] *= 2
	default:
		m[i] = m[i]/2 + 1
	}
	out = append(out, m)
	return out
}

// boundaryInputs proposes width-aware boundary vectors: the reasoning
// chain a real LLM produces from "the FPGA build uses W-bit integers".
func boundaryInputs(arity, width int) [][]int64 {
	half := int64(1) << uint(width-1)
	full := int64(1) << uint(width)
	vals := []int64{half - 1, half, half + 1, full - 1, full, 3 * half / 2, 0, 1}
	var out [][]int64
	for _, v := range vals {
		vec := make([]int64, arity)
		for i := range vec {
			vec[i] = v
		}
		out = append(out, vec)
	}
	return out
}

func vecKey(vec []int64) string {
	out := ""
	for _, v := range vec {
		out += fmt.Sprintf("%d,", v)
	}
	return out
}

type rng struct{ state uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{state: seed}
}

func (r *rng) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}
