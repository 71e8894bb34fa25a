// Package agent implements the intelligent EDA agent the paper's Fig. 6
// envisions (and the Fig. 1 flow instantiates): a single orchestrator
// that drives a design from natural-language specification through HDL
// generation, testbench generation, simulation, feedback-driven debugging,
// logic synthesis and PPA optimization, producing a unified multi-stage
// report. Every stage is delegated to the corresponding substrate: the
// same code paths the individual case studies exercise.
package agent

import (
	"context"
	"fmt"
	"strings"
	"time"

	"llm4eda/internal/autochip"
	"llm4eda/internal/benchset"
	"llm4eda/internal/core"
	"llm4eda/internal/llm"
	"llm4eda/internal/simfarm"
	"llm4eda/internal/synth"
)

// Config parameterizes the agent.
type Config struct {
	// RunSpec carries the shared execution envelope; Workers bounds the
	// embedded AutoChip stage's candidate batches.
	core.RunSpec
	Model llm.Model
	// MaxDebugRounds bounds the simulate-debug loop (default 5).
	MaxDebugRounds int
	// UseModelTestbench makes the agent verify with its own generated
	// testbench first (the risky mode the paper critiques); the reference
	// bench is always used for final signoff.
	UseModelTestbench bool
}

func (c Config) withDefaults() Config {
	if c.MaxDebugRounds == 0 {
		c.MaxDebugRounds = 5
	}
	return c
}

// Agent orchestrates the full flow.
type Agent struct {
	cfg Config
}

// New builds an agent.
func New(cfg Config) (*Agent, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("agent: Config.Model is required")
	}
	return &Agent{cfg: cfg.withDefaults()}, nil
}

// RunProblem drives one benchmark problem through the full flow and
// returns the unified report. ctx is checked between flow stages (and
// inside the embedded AutoChip loop); every completed stage streams to
// the context's event sink.
func (a *Agent) RunProblem(ctx context.Context, p *benchset.Problem) (*core.Report, error) {
	cfg := a.cfg
	sink := core.SinkOf(ctx)
	report := &core.Report{
		Design: core.Design{Name: p.ID, Language: core.LangNaturalLanguage, Source: p.Spec},
	}
	stage := func(s core.Stage, task, detail string, ok bool, start time.Time) {
		report.Append(core.StageRecord{
			Stage: s, Task: task, Detail: detail, OK: ok, Duration: time.Since(start),
		})
		sink.Emit(core.Event{
			Kind: core.EventPhaseEnd, Framework: "agent", Phase: s.String(),
			Seq: len(report.Stages), OK: ok, Detail: task + " — " + detail,
		})
	}

	// Stage 1: specification (already given; the agent restates scope).
	t0 := time.Now()
	stage(core.StageSpecification, "specification optimization",
		fmt.Sprintf("spec for %q (difficulty %d)", p.ID, p.Difficulty), true, t0)

	// Stage 2: HDL generation with EDA feedback (AutoChip engine).
	t0 = time.Now()
	genRes, err := autochip.Run(ctx, p, autochip.Options{
		RunSpec: cfg.RunSpec, Model: cfg.Model, K: 2, Depth: cfg.MaxDebugRounds,
	})
	if err != nil {
		return nil, fmt.Errorf("agent: generation failed: %w", err)
	}
	design := genRes.Best.Source
	stage(core.StageHDLGeneration, "code generation",
		fmt.Sprintf("%d candidates over %d rounds", genRes.TotalCandidates, genRes.Rounds),
		genRes.Solved, t0)
	report.Design = core.Design{Name: p.ID, Language: core.LangVerilog, Source: design, TopModule: p.TopModule}

	// Stage 3: testbench generation.
	t0 = time.Now()
	tb := p.Testbench()
	tbDetail := "reference testbench"
	if cfg.UseModelTestbench {
		resp, err := cfg.Model.Generate(llm.Request{
			System: llm.SystemVerilogDesigner,
			Prompt: llm.BuildTestbenchPrompt(p.Spec, design),
			Task: llm.TestbenchGen{
				ProblemID: p.ID, Spec: p.Spec,
				Header: p.TBHeader, VectorBlocks: p.TBBlocks, Footer: p.TBFooter,
			},
		})
		if err == nil {
			tb = resp.Text
			tbDetail = fmt.Sprintf("model-generated testbench (%d checks vs %d reference)",
				strings.Count(tb, "$check_eq"), p.Checks())
		}
	}
	stage(core.StageTestbench, "testbench generation", tbDetail, true, t0)

	// Stage 4: simulation. The design was just scored by the AutoChip
	// stage, so the farm serves the compile (and often the whole run)
	// from cache.
	t0 = time.Now()
	runs, err := simfarm.RunManyCtx(ctx, []simfarm.Job{{DUT: design, TB: tb, Top: "tb"}}, 1)
	if err != nil {
		return report, err
	}
	simRes, err := runs[0].Res, runs[0].Err
	simOK := err == nil && simRes != nil && simRes.Passed()
	detail := "simulation failed to compile"
	if err == nil {
		detail = fmt.Sprintf("%d/%d checks pass", simRes.Checks-simRes.Failures, simRes.Checks)
	}
	stage(core.StageSimulation, "design verification", detail, simOK, t0)

	// Stage 5: debugging (only when needed): one more feedback round
	// against the reference bench.
	if err := ctx.Err(); err != nil {
		return report, err
	}
	if !simOK {
		t0 = time.Now()
		fixed := autochip.Evaluate(ctx, p, design)
		resp, err := cfg.Model.Generate(llm.Request{
			System: llm.SystemVerilogDesigner,
			Prompt: llm.BuildFeedbackPrompt(p.Spec, design, fixed.Feedback),
			Task: llm.VerilogGen{
				ProblemID: p.ID, Spec: p.Spec, Reference: p.Reference,
				Difficulty: p.Difficulty, PrevAttempt: design, Feedback: fixed.Feedback,
			},
		})
		if err == nil {
			cand := autochip.Evaluate(ctx, p, resp.Text)
			if cand.Verdict.PassFraction() >= fixed.Verdict.PassFraction() {
				design = resp.Text
				report.Design.Source = design
			}
			stage(core.StageDebugging, "bug detection and correction",
				fmt.Sprintf("pass fraction %.2f -> %.2f",
					fixed.Verdict.PassFraction(), cand.Verdict.PassFraction()),
				cand.Verdict.Pass(), t0)
		} else {
			stage(core.StageDebugging, "bug detection and correction", err.Error(), false, t0)
		}
	}

	// Final signoff with the reference bench.
	final := autochip.Evaluate(ctx, p, design)
	report.Verdict = final.Verdict

	// Stage 6: logic synthesis.
	if err := ctx.Err(); err != nil {
		return report, err
	}
	t0 = time.Now()
	sr, err := synth.SynthesizeRTL(design, p.TopModule)
	if err != nil {
		stage(core.StageSynthesis, "logic synthesis", err.Error(), false, t0)
		return report, nil
	}
	stage(core.StageSynthesis, "logic synthesis", sr.String(), true, t0)
	report.Final = sr.PPA()

	// Stage 7: PPA optimization: LLM rewrite, kept only when it verifies
	// and improves area.
	t0 = time.Now()
	resp, err := cfg.Model.Generate(llm.Request{
		System: llm.SystemVerilogDesigner,
		Prompt: llm.BuildSynthHintPrompt(design),
		Task:   llm.SynthRewrite{RTL: design},
	})
	if err == nil && resp.Text != design {
		cand := autochip.Evaluate(ctx, p, resp.Text)
		if cand.Verdict.Pass() || cand.Verdict.PassFraction() >= final.Verdict.PassFraction() {
			if sr2, err := synth.SynthesizeRTL(resp.Text, p.TopModule); err == nil && sr2.Gates < sr.Gates {
				report.Design.Source = resp.Text
				report.Final = sr2.PPA()
				stage(core.StagePPAOptimization, "ppa optimization",
					fmt.Sprintf("area %.0f -> %.0f gates", sr.Gates, sr2.Gates), true, t0)
				return report, nil
			}
		}
	}
	stage(core.StagePPAOptimization, "ppa optimization", "no profitable rewrite found", true, t0)
	return report, nil
}

// RunSuite drives a set of problems and returns per-problem reports. ctx
// cancellation stops between problems (and mid-flow inside each).
func (a *Agent) RunSuite(ctx context.Context, problems []*benchset.Problem) ([]*core.Report, error) {
	reports := make([]*core.Report, 0, len(problems))
	for _, p := range problems {
		if err := ctx.Err(); err != nil {
			return reports, err
		}
		r, err := a.RunProblem(ctx, p)
		if r != nil {
			// A cancelled flow still returns its completed stages; keep
			// the partial report with the error.
			reports = append(reports, r)
		}
		if err != nil {
			return reports, fmt.Errorf("agent: %s: %w", p.ID, err)
		}
	}
	return reports, nil
}
