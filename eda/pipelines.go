package eda

import (
	"context"
	"fmt"
	"sync"

	"llm4eda/internal/agent"
	"llm4eda/internal/autochip"
	"llm4eda/internal/benchset"
	"llm4eda/internal/boom"
	"llm4eda/internal/crosscheck"
	"llm4eda/internal/gp"
	"llm4eda/internal/hlstest"
	"llm4eda/internal/lintrepair"
	"llm4eda/internal/llm"
	"llm4eda/internal/rag"
	"llm4eda/internal/repair"
	"llm4eda/internal/slt"
	"llm4eda/internal/vlint"
	"llm4eda/internal/vrank"
	"llm4eda/internal/xdebug"
)

// simModel builds the spec's simulated model (tier and seed both come
// from the shared envelope, already default-filled by Run).
func simModel(spec Spec) (llm.Model, error) {
	tier, err := llm.ParseTier(spec.Run.Tier)
	if err != nil {
		return nil, err
	}
	return llm.NewSimModel(tier, spec.Run.Seed), nil
}

// checkProblem is the payload check for the Verilog-generation
// pipelines: an empty problem (the default sweep) or one that exists in
// the benchmark suite, and no C-kernel payload fields.
func checkProblem(spec Spec) error {
	if spec.Problem != "" && benchset.ByID(spec.Problem) == nil {
		return fmt.Errorf("eda: unknown problem %q (try: llm4eda list)", spec.Problem)
	}
	if spec.Source != "" || spec.Kernel != "" || len(spec.Vectors) > 0 {
		return fmt.Errorf("eda: %s takes a Problem, not Source/Kernel/Vectors", spec.Framework)
	}
	return nil
}

// checkNoPayload is the payload check for the payload-free pipelines
// (slt, gp): any problem or kernel field is a caller mistake, not
// something to silently drop.
func checkNoPayload(spec Spec) error {
	if spec.Problem != "" {
		return fmt.Errorf("eda: %s does not take a Problem", spec.Framework)
	}
	if spec.Source != "" || spec.Kernel != "" || len(spec.Vectors) > 0 {
		return fmt.Errorf("eda: %s does not take Source/Kernel/Vectors", spec.Framework)
	}
	return nil
}

// problemSweep resolves the spec's problem list: the named problem, or
// the given default id sweep.
func problemSweep(spec Spec, defaults []string) []*benchset.Problem {
	if spec.Problem != "" {
		return []*benchset.Problem{benchset.ByID(spec.Problem)}
	}
	out := make([]*benchset.Problem, 0, len(defaults))
	for _, id := range defaults {
		out = append(out, benchset.ByID(id))
	}
	return out
}

func suiteIDs() []string {
	var ids []string
	for _, p := range benchset.Suite() {
		ids = append(ids, p.ID)
	}
	return ids
}

// The §V demo kernel the hlstest pipeline campaigns against when no
// Source is given (the same kernel experiment E3 uses).
const defaultHLSTestKernel = `
int scale(int a, int b) {
    int acc = 0;
    for (int i = 0; i < 4; i++) {
        acc = acc + a * b + i;
    }
    return acc;
}`

// builtinPipelines returns the ten framework adapters behind the front
// door. Each one translates a Spec into the framework's native options
// (embedding the shared RunSpec), runs it under ctx, and folds the native
// result into a uniform Report with the result attached as Detail.
func builtinPipelines() []Pipeline {
	return []Pipeline{
		{
			Name:   "agent",
			Doc:    "full-flow EDA agent: spec -> verified, synthesized design (Fig. 6)",
			Params: []string{"debug_rounds"},
			Check:  checkProblem,
			Run:    runAgent,
		},
		{
			Name:   "autochip",
			Doc:    "feedback-driven Verilog generation with tree search (Fig. 4)",
			Params: []string{"k", "depth", "temperature"},
			Check:  checkProblem,
			Run:    runAutochip,
		},
		{
			Name:   "vrank",
			Doc:    "self-consistency candidate ranking on oracle-free stimuli (§II)",
			Params: []string{"k", "temperature"},
			Check:  checkProblem,
			Run:    runVRank,
		},
		{
			Name:   "crosscheck",
			Doc:    "C-model cross-level validation of RTL candidates (§VI)",
			Params: []string{"vectors"},
			Check:  checkProblem,
			Run:    runCrosscheck,
		},
		{
			Name:   "xdebug",
			Doc:    "cross-level C-vs-RTL trace alignment, divergence localization, guided repair (§VI)",
			Params: []string{"rounds", "vectors", "mutant", "temperature"},
			Check:  checkProblem,
			Run:    runXDebug,
		},
		{
			Name:   "lint",
			Doc:    "static lint screening of candidates with lint-guided repair (E12)",
			Params: []string{"rounds", "mutant", "temperature", "screen"},
			Check:  checkProblem,
			Run:    runLint,
		},
		{
			Name:   "repair",
			Doc:    "retrieval-augmented C/C++ repair for HLS (Fig. 2)",
			Params: []string{"iterations", "rag"},
			Check:  checkRepairPayload,
			Run:    runRepair,
		},
		{
			Name:   "hlstest",
			Doc:    "CPU-vs-RTL behavioral discrepancy testing (Fig. 3)",
			Params: []string{"width", "budget", "guided"},
			Check:  checkKernelPayload,
			Run:    runHLSTest,
		},
		{
			Name: "slt",
			Doc:  "LLM loop maximizing processor power via SLT programs (§V)",
			// The paper's §V loop drives a GPT-4-class model.
			DefaultTier: "large",
			Params:      []string{"evals", "scot", "adaptive", "diversity"},
			Check:       checkNoPayload,
			Run:         runSLT,
		},
		{
			Name:   "gp",
			Doc:    "genetic-programming baseline for the SLT power loop (§V)",
			Params: []string{"evals", "population"},
			Check:  checkNoPayload,
			Run:    runGP,
		},
	}
}

// maxSourceBytes caps Spec.Source. The C front end lexes the whole text
// before it parses any of it, so an oversized source costs time and
// memory before any other limit applies; every C kernel in the repo is
// under 1 KiB.
const maxSourceBytes = 256 << 10

// checkKernelPayload is the payload check for the HLS pipelines: Source
// and Kernel set together (or neither, for the default sweep), Source at
// most maxSourceBytes long, and no benchmark Problem.
func checkKernelPayload(spec Spec) error {
	if len(spec.Source) > maxSourceBytes {
		return fmt.Errorf("eda: %s: Spec.Source is %d bytes, over the %d-byte limit",
			spec.Framework, len(spec.Source), maxSourceBytes)
	}
	if spec.Source != "" && spec.Kernel == "" {
		return fmt.Errorf("eda: %s: Spec.Kernel must name the function when Source is set", spec.Framework)
	}
	if spec.Source == "" && spec.Kernel != "" {
		return fmt.Errorf("eda: %s: Spec.Source is required when Kernel is set", spec.Framework)
	}
	if spec.Problem != "" {
		return fmt.Errorf("eda: %s takes Source/Kernel, not a Problem", spec.Framework)
	}
	return nil
}

// checkRepairPayload additionally rejects Vectors without a Source: the
// default benchmark sweep carries its own equivalence vectors, so
// caller-supplied ones would be silently dropped. (hlstest differs: its
// Vectors seed the default kernel's campaign and are honored alone.)
func checkRepairPayload(spec Spec) error {
	if err := checkKernelPayload(spec); err != nil {
		return err
	}
	if spec.Source == "" && len(spec.Vectors) > 0 {
		return fmt.Errorf("eda: repair: Spec.Vectors require Source/Kernel (the benchmark sweep has its own)")
	}
	return nil
}

func runAgent(ctx context.Context, spec Spec) (*Report, error) {
	model, err := simModel(spec)
	if err != nil {
		return nil, err
	}
	a, err := agent.New(agent.Config{
		RunSpec: spec.Run, Model: model,
		MaxDebugRounds: int(spec.Param("debug_rounds", 0)),
	})
	if err != nil {
		return nil, err
	}
	problems := problemSweep(spec, []string{"adder4", "mux4", "counter8", "det101", "lfsr8"})
	reports, err := a.RunSuite(ctx, problems)
	rep := &Report{Detail: reports}
	passed := 0
	for _, r := range reports {
		if r.Verdict.Pass() {
			passed++
		}
	}
	rep.Metric("passed", float64(passed))
	rep.Metric("total", float64(len(problems)))
	rep.OK = err == nil && passed == len(problems)
	rep.Summary = fmt.Sprintf("%d/%d designs verified end to end", passed, len(problems))
	return rep, err
}

func runAutochip(ctx context.Context, spec Spec) (*Report, error) {
	model, err := simModel(spec)
	if err != nil {
		return nil, err
	}
	opts := autochip.Options{
		RunSpec: spec.Run, Model: model,
		K:           int(spec.Param("k", 3)),
		Depth:       int(spec.Param("depth", 3)),
		Temperature: spec.Param("temperature", 0),
	}
	problems := problemSweep(spec, suiteIDs())
	var results []*autochip.Result
	solved, candidates, tokensOut, retries := 0, 0, 0, 0
	for _, p := range problems {
		var res *autochip.Result
		err := runProblem(ctx, "autochip", p.ID, &retries, func() error {
			var rerr error
			res, rerr = autochip.Run(ctx, p, opts)
			return rerr
		})
		if res != nil {
			results = append(results, res)
			candidates += res.TotalCandidates
			tokensOut += res.TokensOut
			if res.Solved {
				solved++
			}
		}
		if err != nil {
			rep := autochipReport(results, solved, candidates, tokensOut, len(problems))
			setRetryMetric(rep, retries)
			return rep, err
		}
	}
	rep := autochipReport(results, solved, candidates, tokensOut, len(problems))
	setRetryMetric(rep, retries)
	return rep, nil
}

func autochipReport(results []*autochip.Result, solved, candidates, tokensOut, total int) *Report {
	rep := &Report{Detail: results}
	rep.Metric("solved", float64(solved))
	rep.Metric("total", float64(total))
	rep.Metric("candidates", float64(candidates))
	rep.Metric("tokens_out", float64(tokensOut))
	rep.OK = solved == total
	rep.Summary = fmt.Sprintf("solved %d/%d problems with %d candidates", solved, total, candidates)
	return rep
}

func runVRank(ctx context.Context, spec Spec) (*Report, error) {
	model, err := simModel(spec)
	if err != nil {
		return nil, err
	}
	opts := vrank.Options{
		RunSpec: spec.Run, Model: model,
		K:           int(spec.Param("k", 5)),
		Temperature: spec.Param("temperature", 0),
	}
	problems := problemSweep(spec, []string{"alu8", "mux4", "enc8to3", "barrel8", "satadd8", "popcount8"})
	var results []*vrank.Result
	chosen, first, oracle, retries := 0, 0, 0, 0
	for _, p := range problems {
		var res *vrank.Result
		err := runProblem(ctx, "vrank", p.ID, &retries, func() error {
			var rerr error
			res, rerr = vrank.Rank(ctx, p, opts)
			return rerr
		})
		if res != nil {
			results = append(results, res)
			if res.ChosenPasses {
				chosen++
			}
			if res.FirstPasses {
				first++
			}
			if res.AnyPasses {
				oracle++
			}
		}
		if err != nil {
			rep := vrankReport(results, chosen, first, oracle, len(problems))
			setRetryMetric(rep, retries)
			return rep, err
		}
	}
	rep := vrankReport(results, chosen, first, oracle, len(problems))
	setRetryMetric(rep, retries)
	return rep, nil
}

func vrankReport(results []*vrank.Result, chosen, first, oracle, total int) *Report {
	rep := &Report{Detail: results}
	rep.Metric("chosen_pass", float64(chosen))
	rep.Metric("first_pass", float64(first))
	rep.Metric("oracle_pass", float64(oracle))
	rep.Metric("total", float64(total))
	rep.OK = chosen >= first && total > 0
	rep.Summary = fmt.Sprintf("self-consistency picked a passing design on %d/%d problems (first-sample %d, oracle %d)",
		chosen, total, first, oracle)
	return rep
}

func runCrosscheck(ctx context.Context, spec Spec) (*Report, error) {
	model, err := simModel(spec)
	if err != nil {
		return nil, err
	}
	var problems []*benchset.Problem
	if spec.Problem != "" {
		problems = []*benchset.Problem{benchset.ByID(spec.Problem)}
	} else {
		for _, p := range benchset.Suite() {
			if p.CModel != "" && len(p.Ports) > 0 {
				problems = append(problems, p)
			}
		}
	}
	nVectors := int(spec.Param("vectors", 32))
	var results []*crosscheck.Result
	clean, retries := 0, 0
	report := func() *Report {
		rep := &Report{Detail: results}
		rep.Metric("clean", float64(clean))
		rep.Metric("total", float64(len(problems)))
		rep.Metric("vectors", float64(nVectors))
		rep.OK = clean == len(problems)
		rep.Summary = fmt.Sprintf("%d/%d reference designs cross-level clean over %d vectors",
			clean, len(problems), nVectors)
		setRetryMetric(rep, retries)
		return rep
	}
	for _, p := range problems {
		var res *crosscheck.Result
		err := runProblem(ctx, "crosscheck", p.ID, &retries, func() error {
			cm, gerr := crosscheck.GenerateModel(model, p)
			if gerr != nil {
				return gerr
			}
			var rerr error
			res, rerr = crosscheck.Validate(ctx, p.Reference, p, cm, nVectors)
			return rerr
		})
		if err != nil {
			// Partial report travels with the error (cancellation contract).
			return report(), fmt.Errorf("%s: %w", p.ID, err)
		}
		results = append(results, res)
		if res.Clean() {
			clean++
		}
	}
	return report(), nil
}

// xdebugCandidate builds the debug loop's starting candidate: with
// mutant > 0 a deterministic single-fault mutant of the reference
// (indexed by seed+mutant so seeds sweep the corpus), with mutant == 0 a
// model-generated design. Problems whose reference admits no mutants
// (e.g. a single unary assign) fall back to the reference itself.
// Returns the candidate and the injected fault line (0 = none).
func xdebugCandidate(p *benchset.Problem, model llm.Model, seed uint64, mutant int) (string, int) {
	if mutant > 0 {
		if ms := xdebug.Mutants(p.Reference); len(ms) > 0 {
			m := ms[(int(seed)+mutant-1)%len(ms)]
			return m.Source, m.Line
		}
		return p.Reference, 0
	}
	resp, err := model.Generate(llm.Request{
		System: llm.SystemVerilogDesigner,
		Prompt: llm.BuildDesignPrompt(p.Spec),
		Task: llm.VerilogGen{ProblemID: p.ID, Spec: p.Spec,
			Reference: p.Reference, Difficulty: p.Difficulty},
	})
	if err != nil {
		return p.Reference, 0
	}
	return resp.Text, 0
}

func runXDebug(ctx context.Context, spec Spec) (*Report, error) {
	model, err := simModel(spec)
	if err != nil {
		return nil, err
	}
	var problems []*benchset.Problem
	if spec.Problem != "" {
		problems = []*benchset.Problem{benchset.ByID(spec.Problem)}
	} else {
		for _, p := range benchset.Suite() {
			if p.CModel != "" && len(p.Ports) > 0 {
				problems = append(problems, p)
			}
		}
	}
	opts := xdebug.Options{
		RunSpec: spec.Run, Model: model,
		Rounds:      int(spec.Param("rounds", 6)),
		Vectors:     int(spec.Param("vectors", 24)),
		Temperature: spec.Param("temperature", 0),
	}
	mutant := int(spec.Param("mutant", 1))
	var results []*xdebug.Result
	converged, localized, injectedHit, rounds, retries := 0, 0, 0, 0, 0
	report := func() *Report {
		rep := &Report{Detail: results}
		rep.Metric("converged", float64(converged))
		rep.Metric("localized", float64(localized))
		rep.Metric("injected_hit", float64(injectedHit))
		rep.Metric("total", float64(len(problems)))
		rep.Metric("rounds", float64(rounds))
		rep.OK = converged == len(problems)
		rep.Summary = fmt.Sprintf("repaired %d/%d designs to trace-identical RTL in %d rounds (localized %d, injected-fault hits %d)",
			converged, len(problems), rounds, localized, injectedHit)
		setRetryMetric(rep, retries)
		return rep
	}
	for _, p := range problems {
		cand, inj := xdebugCandidate(p, model, spec.Run.Seed, mutant)
		var res *xdebug.Result
		err := runProblem(ctx, "xdebug", p.ID, &retries, func() error {
			var rerr error
			res, rerr = xdebug.Debug(ctx, p, cand, opts)
			return rerr
		})
		if res != nil {
			results = append(results, res)
			rounds += len(res.Rounds)
			if res.Converged {
				converged++
			}
			if res.Localized {
				localized++
			}
			if inj > 0 && len(res.Rounds) > 0 && res.Rounds[0].Diag != nil &&
				res.Rounds[0].Diag.SuspectLine == inj {
				injectedHit++
			}
		}
		if err != nil {
			// Partial report travels with the error (cancellation contract).
			return report(), fmt.Errorf("%s: %w", p.ID, err)
		}
	}
	return report(), nil
}

// lintCandidate builds the lint loop's starting candidate: with
// mutant > 0 a deterministic error-class lint mutant of the reference
// (indexed by seed+mutant so seeds sweep the corpus), with mutant == 0 a
// model-generated design. Problems whose reference admits no error-class
// mutant fall back to the reference itself. Returns the candidate and
// the injected mutant class ("" = none).
func lintCandidate(p *benchset.Problem, model llm.Model, seed uint64, mutant int) (string, string) {
	if mutant > 0 {
		if errs := errorClassMutants(p); len(errs) > 0 {
			m := errs[(int(seed)+mutant-1)%len(errs)]
			return m.Source, m.Class
		}
		return p.Reference, ""
	}
	resp, err := model.Generate(llm.Request{
		System: llm.SystemVerilogDesigner,
		Prompt: llm.BuildDesignPrompt(p.Spec),
		Task: llm.VerilogGen{ProblemID: p.ID, Spec: p.Spec,
			Reference: p.Reference, Difficulty: p.Difficulty},
	})
	if err != nil {
		return p.Reference, ""
	}
	return resp.Text, ""
}

// lintMutants memoizes errorClassMutants by problem ID. Mutants are a
// pure function of the shared reference, and the key set is bounded by
// the suite because checkProblem rejects unknown IDs.
var lintMutants sync.Map // problem ID -> []vlint.Mutant

// errorClassMutants returns the reference's error-class lint mutants in
// vlint.Mutants order. The slice is shared: callers only read it.
func errorClassMutants(p *benchset.Problem) []vlint.Mutant {
	if errs, ok := lintMutants.Load(p.ID); ok {
		return errs.([]vlint.Mutant)
	}
	var errs []vlint.Mutant
	for _, m := range vlint.Mutants(p.Reference) {
		if m.IsErrorClass() {
			errs = append(errs, m)
		}
	}
	stored, _ := lintMutants.LoadOrStore(p.ID, errs)
	return stored.([]vlint.Mutant)
}

func runLint(ctx context.Context, spec Spec) (*Report, error) {
	model, err := simModel(spec)
	if err != nil {
		return nil, err
	}
	opts := lintrepair.Options{
		RunSpec: spec.Run, Model: model,
		Rounds:      int(spec.Param("rounds", 6)),
		Screen:      spec.Param("screen", 1) != 0,
		Temperature: spec.Param("temperature", 0),
	}
	mutant := int(spec.Param("mutant", 1))
	problems := problemSweep(spec, suiteIDs())
	var results []*lintrepair.Result
	detected, converged, injected, rejects, rounds, retries := 0, 0, 0, 0, 0, 0
	report := func() *Report {
		rep := &Report{Detail: results}
		rep.Metric("detected", float64(detected))
		rep.Metric("converged", float64(converged))
		rep.Metric("injected", float64(injected))
		rep.Metric("rejects", float64(rejects))
		rep.Metric("total", float64(len(problems)))
		rep.Metric("rounds", float64(rounds))
		rep.OK = converged == len(problems) && detected == injected
		rep.Summary = fmt.Sprintf("screen caught %d/%d injected lint faults pre-simulation; repaired %d/%d designs in %d rounds (%d rejects)",
			detected, injected, converged, len(problems), rounds, rejects)
		setRetryMetric(rep, retries)
		return rep
	}
	for _, p := range problems {
		cand, class := lintCandidate(p, model, spec.Run.Seed, mutant)
		var res *lintrepair.Result
		err := runProblem(ctx, "lint", p.ID, &retries, func() error {
			var rerr error
			res, rerr = lintrepair.Run(ctx, p, cand, opts)
			return rerr
		})
		if res != nil {
			results = append(results, res)
			rounds += len(res.Rounds)
			if class != "" {
				injected++
			}
			if res.Detected {
				detected++
			}
			if res.Converged {
				converged++
			}
			for _, r := range res.Rounds {
				if r.Rejected {
					rejects++
				}
			}
		}
		if err != nil {
			// Partial report travels with the error (cancellation contract).
			return report(), fmt.Errorf("%s: %w", p.ID, err)
		}
	}
	return report(), nil
}

func runRepair(ctx context.Context, spec Spec) (*Report, error) {
	model, err := simModel(spec)
	if err != nil {
		return nil, err
	}
	cfg := repair.Config{
		RunSpec: spec.Run, Model: model,
		MaxIterations: int(spec.Param("iterations", 0)),
	}
	if spec.Param("rag", 1) != 0 {
		cfg.Library = rag.DefaultCorrectionLibrary()
	}
	fw := repair.New(cfg)

	type job struct {
		id      string
		source  string
		kernel  string
		vectors [][]int64
	}
	var jobs []job
	if spec.Source != "" {
		jobs = append(jobs, job{id: spec.Kernel, source: spec.Source, kernel: spec.Kernel, vectors: spec.Vectors})
	} else {
		for _, k := range repair.BenchKernels() {
			jobs = append(jobs, job{id: k.ID, source: k.Source, kernel: k.Kernel, vectors: k.Vectors})
		}
	}
	var results []*repair.Outcome
	repaired, iters, retries := 0, 0, 0
	report := func() *Report {
		rep := &Report{Detail: results}
		rep.Metric("repaired", float64(repaired))
		rep.Metric("total", float64(len(jobs)))
		rep.Metric("iterations", float64(iters))
		rep.OK = repaired == len(jobs)
		rep.Summary = fmt.Sprintf("repaired %d/%d kernels (rag=%v)", repaired, len(jobs), cfg.Library != nil)
		setRetryMetric(rep, retries)
		return rep
	}
	for _, j := range jobs {
		var out *repair.Outcome
		err := runProblem(ctx, "repair", j.id, &retries, func() error {
			var rerr error
			out, rerr = fw.Repair(ctx, j.source, j.kernel, j.vectors)
			return rerr
		})
		if out != nil {
			results = append(results, out)
			iters += out.Iterations
			if out.Success {
				repaired++
			}
		}
		if err != nil {
			// Partial report travels with the error (cancellation contract).
			return report(), fmt.Errorf("%s: %w", j.id, err)
		}
	}
	return report(), nil
}

func runHLSTest(ctx context.Context, spec Spec) (*Report, error) {
	source, kernel, seeds := spec.Source, spec.Kernel, spec.Vectors
	if source == "" {
		source, kernel = defaultHLSTestKernel, "scale"
		if len(seeds) == 0 {
			seeds = [][]int64{{1, 1}, {2, 3}}
		}
	}
	guided := spec.Param("guided", 1) != 0
	cfg := hlstest.Config{
		RunSpec:      spec.Run,
		WidthBits:    int(spec.Param("width", 16)),
		SimBudget:    int(spec.Param("budget", 40)),
		UseSpectra:   guided,
		UseFilter:    guided,
		UseReasoning: guided,
	}
	if guided {
		model, err := simModel(spec)
		if err != nil {
			return nil, err
		}
		cfg.Model = model
	}
	res, err := hlstest.Run(ctx, source, "", kernel, seeds, cfg)
	if res == nil {
		return nil, err
	}
	// A cancelled campaign still reports the inputs it got through.
	rep := &Report{Detail: res}
	rep.Metric("discrepancies", float64(len(res.Discrepancies)))
	rep.Metric("sims_run", float64(res.SimsRun))
	rep.Metric("sims_skipped", float64(res.SimsSkipped))
	rep.Metric("inputs", float64(res.InputsGenerated))
	rep.OK = err == nil
	rep.Summary = fmt.Sprintf("%d discrepancies in %d hardware sims (%d redundant skipped)",
		len(res.Discrepancies), res.SimsRun, res.SimsSkipped)
	return rep, err
}

func runSLT(ctx context.Context, spec Spec) (*Report, error) {
	model, err := simModel(spec)
	if err != nil {
		return nil, err
	}
	res, err := slt.Run(ctx, slt.Config{
		RunSpec: spec.Run, Model: model,
		UseSCoT:           spec.Param("scot", 1) != 0,
		AdaptiveTemp:      spec.Param("adaptive", 1) != 0,
		DiversityPressure: spec.Param("diversity", 1) != 0,
		MaxEvals:          int(spec.Param("evals", 150)),
		Boom:              boom.RunOptions{MaxInsts: 400_000},
	})
	if res == nil {
		return nil, err
	}
	rep := &Report{Detail: res}
	rep.Metric("best_watts", res.Best.Score)
	rep.Metric("evals", float64(res.Evals))
	rep.Metric("compile_fails", float64(res.CompileFails))
	rep.Metric("final_temp", res.FinalTemp)
	rep.OK = err == nil && res.Best.Score > 0
	rep.Summary = fmt.Sprintf("best %.3f W after %d snippets (%d compile failures)",
		res.Best.Score, res.Evals, res.CompileFails)
	return rep, err
}

func runGP(ctx context.Context, spec Spec) (*Report, error) {
	res, err := gp.Run(ctx, gp.Config{
		RunSpec:    spec.Run,
		MaxEvals:   int(spec.Param("evals", 300)),
		Population: int(spec.Param("population", 0)),
		Boom:       boom.RunOptions{MaxInsts: 400_000},
	})
	if res == nil {
		return nil, err
	}
	rep := &Report{Detail: res}
	rep.Metric("best_watts", res.Best.Score)
	rep.Metric("evals", float64(res.Evals))
	rep.OK = err == nil && res.Best.Score > 0
	rep.Summary = fmt.Sprintf("best %.3f W after %d evaluations", res.Best.Score, res.Evals)
	return rep, err
}
