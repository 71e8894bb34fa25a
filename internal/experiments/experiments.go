// Package experiments regenerates every evaluation artifact of the paper:
// each figure's pipeline and each in-text quantitative claim becomes a
// deterministic experiment producing the same rows/series the paper
// reports. The benchmark harness (bench_test.go) and the CLI
// (cmd/llm4eda exp) both call into this package; EXPERIMENTS.md records
// paper-vs-measured for each entry.
package experiments

import (
	"context"
	"fmt"

	"llm4eda/internal/agent"
	"llm4eda/internal/autochip"
	"llm4eda/internal/benchset"
	"llm4eda/internal/boom"
	"llm4eda/internal/core"
	"llm4eda/internal/gp"
	"llm4eda/internal/hlstest"
	"llm4eda/internal/lintrepair"
	"llm4eda/internal/llm"
	"llm4eda/internal/rag"
	"llm4eda/internal/repair"
	"llm4eda/internal/simfarm"
	"llm4eda/internal/slt"
	"llm4eda/internal/synth"
	"llm4eda/internal/verilog"
	"llm4eda/internal/vlint"
	"llm4eda/internal/vrank"
	"llm4eda/internal/xdebug"
)

// Scale selects experiment budgets.
type Scale int

// Budget scales: Quick for CI benches, Full for the recorded results.
const (
	ScaleQuick Scale = iota + 1
	ScaleFull
)

// Runner executes experiments at a given scale with a fixed seed.
type Runner struct {
	Scale Scale
	Seed  uint64
}

// pick returns quick or full depending on the runner's scale.
func (r Runner) pick(quick, full int) int {
	if r.Scale == ScaleFull {
		return full
	}
	return quick
}

// IDs lists every experiment identifier in run order.
func IDs() []string {
	return []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}
}

// All runs every experiment in order. A cancelled ctx stops between
// experiments (and inside the framework loops each one drives).
func (r Runner) All(ctx context.Context) []*core.Experiment {
	var out []*core.Experiment
	for _, id := range IDs() {
		if ctx.Err() != nil {
			return out
		}
		exp, _ := r.ByID(ctx, id)
		out = append(out, exp)
	}
	return out
}

// ByID runs a single experiment ("E1".."E12").
func (r Runner) ByID(ctx context.Context, id string) (*core.Experiment, error) {
	switch id {
	case "E1":
		return r.E1Fig1FullFlow(ctx), nil
	case "E2":
		return r.E2Fig2HLSRepair(ctx), nil
	case "E3":
		return r.E3Fig3Discrepancy(ctx), nil
	case "E4":
		return r.E4Fig4AutoChip(ctx), nil
	case "E5":
		return r.E5Sec4StructuredFlow(ctx), nil
	case "E6":
		return r.E6Fig5SLTvsGP(ctx), nil
	case "E7":
		return r.E7Fig6Agent(ctx), nil
	case "E8":
		return r.E8Sec5Ablations(ctx), nil
	case "E9":
		return r.E9Sec2VRank(ctx), nil
	case "E10":
		return r.E10Sec2LLSM(ctx), nil
	case "E11":
		return r.E11Sec6CrossLevelDebug(ctx), nil
	case "E12":
		return r.E12LintScreening(ctx), nil
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (E1..E12)", id)
	}
}

// E1Fig1FullFlow walks one design through every Fig. 1 stage and reports
// the flow trace (stage -> LLM task -> outcome).
func (r Runner) E1Fig1FullFlow(ctx context.Context) *core.Experiment {
	exp := &core.Experiment{ID: "E1", Artifact: "Fig. 1 — chip design flow with LLM touchpoints"}
	a, err := agent.New(agent.Config{Model: llm.NewSimModel(llm.TierFrontier, r.Seed)})
	if err != nil {
		exp.AddFinding("setup failed: %v", err)
		return exp
	}
	report, err := a.RunProblem(ctx, benchset.ByID("adder4"))
	if err != nil {
		exp.AddFinding("flow failed: %v", err)
		return exp
	}
	for i, s := range report.Stages {
		ok := 0.0
		if s.OK {
			ok = 1
		}
		exp.AddRow("stage:"+s.Stage.String(), float64(i), ok, s.Task+" — "+s.Detail)
	}
	exp.AddFinding("final verdict: %s; synthesized PPA: %s", report.Verdict, report.Final)
	return exp
}

// E2Fig2HLSRepair reproduces the Fig. 2 flow over the repair suite:
// success rate per model tier with and without RAG, plus the stage-4 PPA
// movement.
func (r Runner) E2Fig2HLSRepair(ctx context.Context) *core.Experiment {
	exp := &core.Experiment{ID: "E2", Artifact: "Fig. 2 — automated C/C++ repair for HLS"}
	seeds := r.pick(2, 6)
	kernels := repair.BenchKernels()
	var latBefore, latAfter float64
	var optRuns int

	for _, tier := range []llm.Tier{llm.TierMedium, llm.TierFrontier} {
		for _, useRAG := range []bool{false, true} {
			succ, total := 0, 0
			for seed := 0; seed < seeds; seed++ {
				cfg := repair.Config{Model: llm.NewSimModel(tier, r.Seed+uint64(seed)*101)}
				if useRAG {
					cfg.Library = rag.DefaultCorrectionLibrary()
				}
				fw := repair.New(cfg)
				for _, k := range kernels {
					out, err := fw.Repair(ctx, k.Source, k.Kernel, k.Vectors)
					total++
					if err == nil && out.Success {
						succ++
						if out.PPABefore.LatencyCyc > 0 {
							latBefore += float64(out.PPABefore.LatencyCyc)
							latAfter += float64(out.PPAAfter.LatencyCyc)
							optRuns++
						}
					}
				}
			}
			series := fmt.Sprintf("%s/rag=%v", tier, useRAG)
			exp.AddRow(series, boolTo01(useRAG), float64(succ)/float64(total),
				fmt.Sprintf("%d/%d kernels repaired+equivalent", succ, total))
		}
	}
	if optRuns > 0 {
		exp.AddRow("ppa-opt latency", latBefore/float64(optRuns), latAfter/float64(optRuns),
			"mean latency cycles before(x) vs after(y) stage-4 pragma optimization")
	}
	exp.AddFinding("RAG templates lift repair success at both tiers; stage 4 reduces mean latency")
	return exp
}

// E3Fig3Discrepancy reproduces the Fig. 3 tester: guided vs blind input
// generation at equal hardware-simulation budgets.
func (r Runner) E3Fig3Discrepancy(ctx context.Context) *core.Experiment {
	exp := &core.Experiment{ID: "E3", Artifact: "Fig. 3 — behavioral discrepancy testing for HLS"}
	kernel := `
int scale(int a, int b) {
    int acc = 0;
    for (int i = 0; i < 4; i++) {
        acc = acc + a * b + i;
    }
    return acc;
}`
	seeds := r.pick(2, 5)
	for _, guided := range []bool{false, true} {
		var disc, sims, skipped int
		for s := 0; s < seeds; s++ {
			cfg := hlstest.Config{
				RunSpec:      core.RunSpec{Seed: r.Seed + uint64(s)*17},
				WidthBits:    16,
				SimBudget:    20,
				UseSpectra:   guided,
				UseFilter:    guided,
				UseReasoning: guided,
			}
			if guided {
				cfg.Model = llm.NewSimModel(llm.TierLarge, r.Seed+uint64(s)*17)
			}
			res, err := hlstest.Run(ctx, kernel, "", "scale", [][]int64{{1, 1}, {2, 3}}, cfg)
			if err != nil {
				exp.AddFinding("run failed: %v", err)
				return exp
			}
			disc += len(res.Discrepancies)
			sims += res.SimsRun
			skipped += res.SimsSkipped
		}
		name := "blind-mutation"
		if guided {
			name = "llm-guided+filter"
		}
		exp.AddRow(name, float64(sims), float64(disc),
			fmt.Sprintf("discrepancies per %d HW sims (%d redundant sims skipped)", sims, skipped))
	}
	exp.AddFinding("guided campaign reaches a higher discrepancy yield per hardware simulation")
	return exp
}

// E4Fig4AutoChip reproduces the AutoChip evaluation: pass rate per model
// tier under feedback-depth vs candidate-breadth at equal budget.
func (r Runner) E4Fig4AutoChip(ctx context.Context) *core.Experiment {
	exp := &core.Experiment{ID: "E4", Artifact: "Fig. 4 + §IV — AutoChip tree search vs feedback"}
	seeds := r.pick(1, 3)
	var problems []*benchset.Problem
	for _, p := range benchset.Suite() {
		if p.Difficulty >= 3 {
			problems = append(problems, p)
		}
	}
	configs := []struct {
		name     string
		k, depth int
	}{
		{"sampling(k=6,d=1)", 6, 1},
		{"feedback(k=1,d=6)", 1, 6},
		{"tree(k=3,d=2)", 3, 2},
	}
	for _, tier := range llm.AllTiers() {
		for ci, cfg := range configs {
			solved, total := 0, 0
			for s := 0; s < seeds; s++ {
				for _, p := range problems {
					res, err := autochip.Run(ctx, p, autochip.Options{
						Model: llm.NewSimModel(tier, r.Seed+uint64(s)*271+7),
						K:     cfg.k, Depth: cfg.depth,
					})
					if err != nil {
						exp.AddFinding("run failed: %v", err)
						return exp
					}
					total++
					if res.Solved {
						solved++
					}
				}
			}
			exp.AddRow(fmt.Sprintf("%s/%s", tier, cfg.name), float64(ci),
				float64(solved)/float64(total),
				fmt.Sprintf("%d/%d hard problems solved", solved, total))
		}
	}
	exp.AddFinding("only the most capable tier gains significantly from feedback over candidate sampling (paper §IV)")
	return exp
}

// E5Sec4StructuredFlow reproduces the 8-design structured conversational
// flow study: fraction of designs needing no human feedback.
func (r Runner) E5Sec4StructuredFlow(ctx context.Context) *core.Experiment {
	exp := &core.Experiment{ID: "E5", Artifact: "§IV [10] — structured flow, 8 designs, human feedback"}
	seeds := r.pick(2, 5)
	for _, tier := range []llm.Tier{llm.TierMedium, llm.TierLarge} {
		noHuman, solved, total := 0, 0, 0
		for s := 0; s < seeds; s++ {
			model := llm.NewSimModel(tier, r.Seed+uint64(s)*53)
			for _, p := range benchset.EightDesignSet() {
				res, err := autochip.StructuredFlow(ctx, p, model, 8, verilog.SimOptions{})
				if err != nil {
					exp.AddFinding("run failed: %v", err)
					return exp
				}
				total++
				if res.Solved {
					solved++
					if res.HumanInterventions == 0 {
						noHuman++
					}
				}
			}
		}
		exp.AddRow(tier.String()+"/no-human", 0, float64(noHuman)/float64(total),
			fmt.Sprintf("%d/%d runs needed no human feedback (%d solved)", noHuman, total, solved))
	}
	exp.AddFinding("the stronger tier needs human feedback markedly less often (paper: half of the GPT-4 runs needed none)")
	return exp
}

// E6Fig5SLTvsGP reproduces the §V headline numbers: the LLM loop (24 h ->
// 2021 snippets, best 5.042 W) vs GP (39 h, best 5.682 W, Δ0.640 W),
// rescaled to evaluation budgets.
func (r Runner) E6Fig5SLTvsGP(ctx context.Context) *core.Experiment {
	exp := &core.Experiment{ID: "E6", Artifact: "Fig. 5 + §V — SLT power maximization: LLM loop vs GP"}
	llmEvals := r.pick(120, 400)
	gpEvals := llmEvals * 13 / 8 // 39 h / 24 h budget ratio
	bopts := boom.RunOptions{MaxInsts: 400_000}

	llmRes, err := slt.Run(ctx, slt.Config{
		Model:             llm.NewSimModel(llm.TierLarge, r.Seed+11),
		UseSCoT:           true,
		AdaptiveTemp:      true,
		DiversityPressure: true,
		MaxEvals:          llmEvals,
		Boom:              bopts,
		RunSpec:           core.RunSpec{Seed: r.Seed + 11},
	})
	if err != nil {
		exp.AddFinding("llm run failed: %v", err)
		return exp
	}
	gpRes, _ := gp.Run(ctx, gp.Config{RunSpec: core.RunSpec{Seed: r.Seed + 11}, MaxEvals: gpEvals, Boom: bopts})

	sample := func(tr []float64, series string) {
		step := len(tr) / 10
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(tr); i += step {
			exp.AddRow(series, float64(i), tr[i], "")
		}
		exp.AddRow(series, float64(len(tr)-1), tr[len(tr)-1], "final")
	}
	sample(llmRes.Trajectory, "llm-loop")
	sample(gpRes.Trajectory, "genetic-programming")
	gap := gpRes.Best.Score - llmRes.Best.Score
	exp.AddRow("best-watts", 0, llmRes.Best.Score, fmt.Sprintf("LLM loop after %d snippets (%d compile failures)", llmRes.Evals, llmRes.CompileFails))
	exp.AddRow("best-watts", 1, gpRes.Best.Score, fmt.Sprintf("GP after %d evaluations", gpRes.Evals))
	exp.AddFinding("GP beats the LLM loop by %.3f W given the longer budget (paper: 0.640 W); the LLM loop saturates earlier", gap)
	return exp
}

// E7Fig6Agent reproduces the Fig. 6 vision as a working session: the agent
// drives a mixed suite end to end.
func (r Runner) E7Fig6Agent(ctx context.Context) *core.Experiment {
	exp := &core.Experiment{ID: "E7", Artifact: "Fig. 6 — intelligent EDA agent, unified full flow"}
	a, err := agent.New(agent.Config{Model: llm.NewSimModel(llm.TierFrontier, r.Seed+23)})
	if err != nil {
		exp.AddFinding("setup failed: %v", err)
		return exp
	}
	ids := []string{"adder4", "mux4", "counter8", "det101", "lfsr8"}
	pass := 0
	for i, id := range ids {
		report, err := a.RunProblem(ctx, benchset.ByID(id))
		if err != nil {
			exp.AddFinding("%s failed: %v", id, err)
			continue
		}
		ok := 0.0
		if report.Verdict.Pass() {
			ok = 1
			pass++
		}
		exp.AddRow("design:"+id, float64(i), ok,
			fmt.Sprintf("%d stages, final %s", len(report.Stages), report.Final))
	}
	exp.AddFinding("agent completed %d/%d designs end-to-end (spec -> verified netlist PPA)", pass, len(ids))
	return exp
}

// E8Sec5Ablations isolates the §V design choices: temperature adaptation
// and Levenshtein diversity pressure. The budget is deliberately short of
// saturation (the mechanisms are about convergence, not the space
// ceiling); each arm reports mean best watts plus the mean evaluations
// needed to cross a fixed quality threshold.
func (r Runner) E8Sec5Ablations(ctx context.Context) *core.Experiment {
	exp := &core.Experiment{ID: "E8", Artifact: "§V design choices — temperature adaptation and pool diversity"}
	evals := r.pick(40, 60)
	const threshold = 5.35 // watts: near the LLM space's ceiling
	bopts := boom.RunOptions{MaxInsts: 400_000}
	arms := []struct {
		name      string
		adaptive  bool
		diversity bool
	}{
		{"adaptive+diversity", true, true},
		{"fixed-temp+diversity", false, true},
		{"adaptive+no-diversity", true, false},
		{"fixed-temp+no-diversity", false, false},
	}
	seeds := r.pick(3, 8)
	for i, arm := range arms {
		var best float64
		var toThreshold, reached int
		for s := 0; s < seeds; s++ {
			res, err := slt.Run(ctx, slt.Config{
				Model:             llm.NewSimModel(llm.TierLarge, r.Seed+uint64(s)*97+3),
				UseSCoT:           true,
				AdaptiveTemp:      arm.adaptive,
				DiversityPressure: arm.diversity,
				MaxEvals:          evals,
				Boom:              bopts,
				RunSpec:           core.RunSpec{Seed: r.Seed + uint64(s)*97 + 3},
			})
			if err != nil {
				exp.AddFinding("arm %s failed: %v", arm.name, err)
				return exp
			}
			best += res.Best.Score
			for e, w := range res.Trajectory {
				if w >= threshold {
					toThreshold += e + 1
					reached++
					break
				}
			}
		}
		detail := fmt.Sprintf("mean best watts over %d seeds, %d evals", seeds, evals)
		if reached > 0 {
			detail += fmt.Sprintf("; %.1f evals to %.2f W (%d/%d runs reached it)",
				float64(toThreshold)/float64(reached), threshold, reached, seeds)
		}
		exp.AddRow(arm.name, float64(i), best/float64(seeds), detail)
	}
	exp.AddFinding("short-budget comparison: the mechanisms change convergence speed toward the space ceiling rather than the ceiling itself")
	return exp
}

// E9Sec2VRank reproduces VRank-style self-consistency selection.
func (r Runner) E9Sec2VRank(ctx context.Context) *core.Experiment {
	exp := &core.Experiment{ID: "E9", Artifact: "§II VRank — self-consistency candidate selection"}
	ids := []string{"alu8", "mux4", "enc8to3", "barrel8", "satadd8", "popcount8"}
	seeds := r.pick(3, 8)
	chosen, first, oracle, total := 0, 0, 0, 0
	for _, id := range ids {
		p := benchset.ByID(id)
		for s := 0; s < seeds; s++ {
			res, err := vrank.Rank(ctx, p, vrank.Options{
				Model: llm.NewSimModel(llm.TierMedium, r.Seed+uint64(s)*31+1), K: 7,
			})
			if err != nil {
				exp.AddFinding("rank failed: %v", err)
				return exp
			}
			total++
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
	}
	exp.AddRow("first-sample", 0, float64(first)/float64(total), "naive baseline")
	exp.AddRow("self-consistency", 1, float64(chosen)/float64(total), "largest simulation-output cluster")
	exp.AddRow("oracle-pass@k", 2, float64(oracle)/float64(total), "upper bound within k samples")
	exp.AddFinding("consistency clustering recovers a large fraction of the pass@k headroom without an oracle")
	return exp
}

// llsmDesigns carry strength-reduction headroom for the LLSM experiment.
var llsmDesigns = []struct{ name, src string }{
	{"scaler", `module scaler(input [7:0] a, input [7:0] b, output [15:0] y);
  assign y = (a * 4) + (b * 8) + (a * 2);
endmodule`},
	{"blend", `module blend(input [7:0] a, input [7:0] b, output [15:0] y);
  wire [15:0] t;
  assign t = (a * 16) + b;
  assign y = (t / 2) + (b * 4);
endmodule`},
	{"accum", `module accum(input clk, input [7:0] d, output reg [15:0] acc);
  always @(posedge clk) acc <= acc + d * 2;
endmodule`},
}

// E10Sec2LLSM reproduces the LLSM-style synthesis assist: QoR with vs
// without LLM-suggested rewrites.
func (r Runner) E10Sec2LLSM(ctx context.Context) *core.Experiment {
	exp := &core.Experiment{ID: "E10", Artifact: "§II LLSM — LLM-assisted logic synthesis QoR"}
	model := llm.NewSimModel(llm.TierFrontier, r.Seed+41)
	var baseTotal, llmTotal float64
	for i, d := range llsmDesigns {
		base, err := synth.SynthesizeRTL(d.src, d.name, synth.Options{})
		if err != nil {
			exp.AddFinding("%s baseline failed: %v", d.name, err)
			return exp
		}
		resp, err := model.Generate(llm.Request{
			System: llm.SystemVerilogDesigner,
			Prompt: llm.BuildSynthHintPrompt(d.src),
			Task:   llm.SynthRewrite{RTL: d.src},
		})
		if err != nil {
			exp.AddFinding("%s rewrite failed: %v", d.name, err)
			return exp
		}
		after, err := synth.SynthesizeRTL(resp.Text, d.name, synth.Options{})
		if err != nil {
			after = base // unparsable rewrite: keep baseline
		}
		exp.AddRow("area:"+d.name, float64(i), after.Gates/base.Gates,
			fmt.Sprintf("gates %.0f -> %.0f", base.Gates, after.Gates))
		baseTotal += base.Gates
		llmTotal += after.Gates
	}
	exp.AddFinding("LLM rewrites cut total area to %.0f%% of baseline across the suite",
		100*llmTotal/baseTotal)
	return exp
}

// E11Sec6CrossLevelDebug evaluates the §VI cross-level debugger: first,
// mutation-corpus localization accuracy (does the first divergent
// statement match the injected fault line?); then guided-repair
// convergence of one mutant per problem under the round budget.
func (r Runner) E11Sec6CrossLevelDebug(ctx context.Context) *core.Experiment {
	exp := &core.Experiment{ID: "E11", Artifact: "§VI — cross-level RTL debugging: trace alignment, localization, guided repair"}
	var problems []*benchset.Problem
	for _, p := range benchset.Suite() {
		if p.CModel != "" && len(p.Ports) > 0 {
			problems = append(problems, p)
		}
	}
	vectors := r.pick(16, 32)

	// Localization accuracy over the deterministic mutation corpus.
	divergent, hits := 0, 0
	for i, p := range problems {
		h, err := xdebug.NewHarness(p, "", vectors)
		if err != nil {
			exp.AddFinding("%s: harness failed: %v", p.ID, err)
			return exp
		}
		pd, ph := 0, 0
		for _, m := range xdebug.Mutants(p.Reference) {
			if ctx.Err() != nil {
				return exp
			}
			diag := h.Diagnose(m.Source)
			if diag == nil {
				continue
			}
			pd++
			if diag.SuspectLine == m.Line {
				ph++
			}
		}
		divergent += pd
		hits += ph
		if pd > 0 {
			exp.AddRow("localize:"+p.ID, float64(i), float64(ph)/float64(pd),
				fmt.Sprintf("%d/%d divergent mutants localized to the injected line", ph, pd))
		}
	}

	// Guided-repair convergence: the first mutant of each problem, under
	// the default round budget.
	model := llm.NewSimModel(llm.TierFrontier, r.Seed+67)
	converged, attempted, rounds := 0, 0, 0
	for _, p := range problems {
		ms := xdebug.Mutants(p.Reference)
		if len(ms) == 0 {
			continue
		}
		res, err := xdebug.Debug(ctx, p, ms[0].Source, xdebug.Options{
			RunSpec: core.RunSpec{Seed: r.Seed + 67}, Model: model,
			Rounds: 6, Vectors: vectors,
		})
		if err != nil {
			exp.AddFinding("%s: debug failed: %v", p.ID, err)
			return exp
		}
		attempted++
		rounds += len(res.Rounds)
		if res.Converged {
			converged++
		}
	}
	exp.AddRow("localization-accuracy", 0, ratio(hits, divergent),
		fmt.Sprintf("%d/%d divergent mutants", hits, divergent))
	exp.AddRow("repair-convergence", 1, ratio(converged, attempted),
		fmt.Sprintf("%d/%d mutants back to trace-identical RTL, %.1f rounds mean", converged, attempted,
			float64(rounds)/float64(max(attempted, 1))))
	exp.AddFinding("first-divergence localization hits the injected fault on %.0f%% of mutants; guided repair converges %d/%d within budget",
		100*ratio(hits, divergent), converged, attempted)
	return exp
}

// E12LintScreening evaluates the static lint engine: detection rate over
// the lint-mutant corpus (with the clean-reference dual), lint-guided
// repair convergence, and the pre-simulation compute savings of
// screening — the same loop run twice on fresh farms, screen on vs off,
// comparing design elaborations + simulations actually performed.
func (r Runner) E12LintScreening(ctx context.Context) *core.Experiment {
	exp := &core.Experiment{ID: "E12", Artifact: "static lint engine: mutant detection, lint-guided repair, pre-simulation screening savings"}
	suite := benchset.Suite()

	// Detection over the deterministic lint-mutant corpus, plus the
	// false-positive dual: every reference must screen clean.
	total, detected, errTotal, errDetected, cleanRefs := 0, 0, 0, 0, 0
	for _, p := range suite {
		if ctx.Err() != nil {
			return exp
		}
		if diags, err := vlint.LintSource(p.Reference, p.TopModule); err == nil && !vlint.HasErrors(diags) {
			cleanRefs++
		}
		for _, m := range vlint.Mutants(p.Reference) {
			diags, err := vlint.LintSource(m.Source, p.TopModule)
			if err != nil {
				continue
			}
			total++
			hit := false
			for _, d := range diags {
				if d.Rule == m.WantRule {
					hit = true
					break
				}
			}
			if hit {
				detected++
			}
			if m.IsErrorClass() {
				errTotal++
				if hit && vlint.HasErrors(diags) {
					errDetected++
				}
			}
		}
	}
	exp.AddRow("mutant-detection", 0, ratio(detected, total),
		fmt.Sprintf("%d/%d lint mutants flagged with the planted rule", detected, total))
	exp.AddRow("error-class-detection", 1, ratio(errDetected, errTotal),
		fmt.Sprintf("%d/%d error-class mutants rejected by the screen", errDetected, errTotal))
	exp.AddRow("clean-references", 2, ratio(cleanRefs, len(suite)),
		fmt.Sprintf("%d/%d references screen clean (no false rejects)", cleanRefs, len(suite)))

	// Lint-guided repair over one error-class mutant per problem, run as
	// two arms on fresh farms: screening on (lint report as feedback)
	// and off (the control pays compile+simulate for every broken
	// candidate). Farm computes = design elaborations + simulations.
	limit := r.pick(8, len(suite))
	arm := func(screen bool) (converged, attempted, rounds int, rejects int64, computes uint64, failed bool) {
		model := llm.NewSimModel(llm.TierFrontier, r.Seed+89)
		farm := simfarm.New()
		for _, p := range suite {
			if attempted >= limit || ctx.Err() != nil {
				break
			}
			var start string
			for _, m := range vlint.Mutants(p.Reference) {
				if m.IsErrorClass() {
					start = m.Source
					break
				}
			}
			if start == "" {
				continue
			}
			res, err := lintrepair.Run(ctx, p, start, lintrepair.Options{
				RunSpec: core.RunSpec{Seed: r.Seed + 89}, Model: model,
				Rounds: 6, Screen: screen, Farm: farm,
			})
			if err != nil {
				exp.AddFinding("%s: lint repair failed: %v", p.ID, err)
				failed = true
				return
			}
			attempted++
			rounds += len(res.Rounds)
			if res.Converged {
				converged++
			}
		}
		st := farm.Stats()
		return converged, attempted, rounds, st.LintRejects,
			st.Designs.Computes + st.Results.Computes, false
	}
	converged, attempted, rounds, rejects, onComputes, failed := arm(true)
	if failed {
		return exp
	}
	_, _, _, _, offComputes, failed := arm(false)
	if failed {
		return exp
	}
	exp.AddRow("repair-convergence", 3, ratio(converged, attempted),
		fmt.Sprintf("%d/%d lint mutants repaired to passing RTL, %.1f rounds mean", converged, attempted,
			float64(rounds)/float64(max(attempted, 1))))
	exp.AddRow("screen-savings", 4, ratio(int(offComputes-onComputes), int(max(int(offComputes), 1))),
		fmt.Sprintf("%d rejects cut farm computes %d -> %d", rejects, offComputes, onComputes))
	exp.AddFinding("screen detects %d/%d error-class lint mutants with %d/%d references clean; lint-guided repair converges %d/%d, and screening cuts farm computes %d -> %d",
		errDetected, errTotal, cleanRefs, len(suite), converged, attempted, offComputes, onComputes)
	return exp
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
