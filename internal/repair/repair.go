// Package repair implements the paper's Fig. 2 case study: automated
// C/C++ program repair for HLS with LLMs. The four stages map one-to-one
// onto the figure:
//
//  1. Preprocessing — the HLS frontend reports actual errors; the LLM
//     flags additional potential errors.
//  2. Repair with RAG — correction templates retrieved from the library
//     are injected into the repair prompt; the loop iterates until the
//     kernel synthesizes or the budget is exhausted.
//  3. Equivalence verification — C-RTL co-simulation compares the
//     repaired kernel's RTL against the original program's CPU execution.
//  4. PPA optimization — the LLM adjusts pragmas toward the reported
//     bottleneck; the result is kept only if it remains equivalent and
//     improves the PPA score.
package repair

import (
	"context"
	"fmt"
	"strings"

	"llm4eda/internal/chdl"
	"llm4eda/internal/core"
	"llm4eda/internal/hls"
	"llm4eda/internal/llm"
	"llm4eda/internal/rag"
	"llm4eda/internal/simfarm"
)

// Config parameterizes the framework.
type Config struct {
	// RunSpec carries the shared execution envelope (seed, tier, workers,
	// deadline).
	core.RunSpec
	Model llm.Model
	// Library is the correction-template library; nil disables RAG (the
	// ablation arm of experiment E2).
	Library *rag.Library
	// MaxIterations bounds the repair loop (default 4).
	MaxIterations int
	// TemplatesPerQuery is the retrieval depth (default 3).
	TemplatesPerQuery int
	// HLSOptions configures the synthesis backend.
	HLSOptions hls.Options
}

func (c Config) withDefaults() Config {
	if c.MaxIterations == 0 {
		c.MaxIterations = 4
	}
	if c.TemplatesPerQuery == 0 {
		c.TemplatesPerQuery = 3
	}
	return c
}

// StageLog records one stage's outcome for the report.
type StageLog struct {
	Stage  string
	Detail string
	OK     bool
}

// Outcome is the full framework result for one kernel.
type Outcome struct {
	// Success means the kernel synthesizes and is equivalent to the
	// original on every vector.
	Success bool
	// RepairedSource is the final HLS-C program.
	RepairedSource string
	// Iterations is the number of repair-loop rounds used.
	Iterations int
	// ActualErrors and PotentialErrors are the stage-1 findings.
	ActualErrors    []string
	PotentialErrors []string
	// EquivalenceVectors / Mismatches summarize stage 3.
	EquivalenceVectors int
	Mismatches         int
	// PPABefore/PPAAfter bracket stage 4 (zero if it did not run).
	PPABefore core.PPA
	PPAAfter  core.PPA
	Optimized bool
	Stages    []StageLog
}

// Framework runs the four-stage flow.
type Framework struct {
	cfg Config
}

// New builds a framework instance.
func New(cfg Config) *Framework {
	return &Framework{cfg: cfg.withDefaults()}
}

// Repair runs the full flow on one kernel source. kernel names the
// function to synthesize; vectors are the equivalence-check inputs
// (one slice per invocation, arguments in order). ctx is checked between
// repair iterations and stages; stage outcomes stream to the context's
// event sink.
func (f *Framework) Repair(ctx context.Context, source, kernel string, vectors [][]int64) (*Outcome, error) {
	cfg := f.cfg
	sink := core.SinkOf(ctx)
	out := &Outcome{RepairedSource: source}
	log := func(stage, detail string, ok bool) {
		out.Stages = append(out.Stages, StageLog{Stage: stage, Detail: detail, OK: ok})
		sink.Emit(core.Event{
			Kind: core.EventPhaseEnd, Framework: "repair", Phase: stage,
			OK: ok, Detail: detail,
		})
	}

	// Reference ("CPU") results for the original program, computed once.
	origProg, err := simfarm.ParseC(source)
	if err != nil {
		return nil, fmt.Errorf("repair: original program does not parse: %w", err)
	}
	refResults := make([]int64, len(vectors))
	for i, vec := range vectors {
		in, err := chdl.NewInterp(origProg, chdl.InterpOptions{})
		if err != nil {
			return nil, err
		}
		r, err := in.CallInts(kernel, vec...)
		if err != nil {
			return nil, fmt.Errorf("repair: original program fails on vector %v: %w", vec, err)
		}
		refResults[i] = r
	}

	// Stage 1: preprocessing.
	out.ActualErrors = hls.Diagnostics(source)
	var advisory []string
	for _, issue := range chdl.Analyze(origProg) {
		if !issue.Kind.Blocking() {
			advisory = append(advisory, issue.String())
		}
	}
	resp, err := cfg.Model.Generate(llm.Request{
		System: llm.SystemHLSExpert,
		Prompt: "List potential HLS problems beyond the compiler report.\n\n" + source,
		Task:   llm.PotentialErrors{Source: source, KnownIssues: advisory},
	})
	if err == nil && resp.Text != "" {
		out.PotentialErrors = strings.Split(resp.Text, "\n")
	}
	log("preprocessing", fmt.Sprintf("%d actual, %d potential errors",
		len(out.ActualErrors), len(out.PotentialErrors)), true)

	// Stage 2: iterative repair with RAG.
	current := source
	var design *hls.Design
	var repairedProg *chdl.Program
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		prog, err := simfarm.ParseC(current)
		if err == nil {
			design, err = hls.Synthesize(prog, kernel, cfg.HLSOptions)
			if err == nil {
				repairedProg = prog
				out.Iterations = iter
				break
			}
		}
		diags := hls.Diagnostics(current)
		diags = append(diags, out.PotentialErrors...)
		var templates []string
		if cfg.Library != nil {
			for _, hit := range cfg.Library.Retrieve(strings.Join(diags, "\n"), cfg.TemplatesPerQuery) {
				templates = append(templates, hit.Template.Body)
			}
		}
		resp, err := cfg.Model.Generate(llm.Request{
			System: llm.SystemHLSExpert,
			Prompt: llm.BuildRepairPrompt(current, diags, templates),
			Task:   llm.CRepair{Source: current, Diagnostics: diags, Templates: templates},
		})
		if err != nil {
			log("repair", fmt.Sprintf("iteration %d: model failure: %v", iter+1, err), false)
			return out, nil
		}
		current = resp.Text
		out.Iterations = iter + 1
	}
	out.RepairedSource = current
	if design == nil {
		// One last try with whatever the loop produced.
		if prog, err := simfarm.ParseC(current); err == nil {
			if d, err := hls.Synthesize(prog, kernel, cfg.HLSOptions); err == nil {
				design, repairedProg = d, prog
			}
		}
	}
	if design == nil {
		log("repair", fmt.Sprintf("kernel still not synthesizable after %d iterations", out.Iterations), false)
		return out, nil
	}
	log("repair", fmt.Sprintf("synthesizable after %d iterations (%d states)", out.Iterations, design.States), true)

	// Stage 3: equivalence verification against the ORIGINAL program.
	results, err := hls.CoSimulate(design, repairedProg, kernel, vectors)
	if err != nil {
		log("equivalence", fmt.Sprintf("co-simulation failed: %v", err), false)
		return out, nil
	}
	out.EquivalenceVectors = len(results)
	for i, r := range results {
		if !r.RTLValid || r.RTL != refResults[i] {
			out.Mismatches++
		}
	}
	equiv := out.Mismatches == 0
	log("equivalence", fmt.Sprintf("%d/%d vectors match original CPU execution",
		out.EquivalenceVectors-out.Mismatches, out.EquivalenceVectors), equiv)
	if !equiv {
		return out, nil
	}
	out.PPABefore = design.PPA
	out.Success = true

	// Stage 4: PPA optimization.
	bottleneck := "latency"
	if design.PPA.AreaGates > 50_000 {
		bottleneck = "area"
	}
	resp, err = cfg.Model.Generate(llm.Request{
		System: llm.SystemHLSExpert,
		Prompt: llm.BuildPragmaPrompt(current, bottleneck),
		Task:   llm.PragmaOpt{Source: current, Bottleneck: bottleneck},
	})
	if err != nil {
		log("ppa-optimization", fmt.Sprintf("model failure: %v", err), false)
		out.PPAAfter = out.PPABefore
		return out, nil
	}
	optProg, err := simfarm.ParseC(resp.Text)
	if err != nil {
		log("ppa-optimization", "optimized source does not parse; keeping baseline", false)
		out.PPAAfter = out.PPABefore
		return out, nil
	}
	optDesign, err := hls.Synthesize(optProg, kernel, cfg.HLSOptions)
	if err != nil {
		log("ppa-optimization", "optimized source does not synthesize; keeping baseline", false)
		out.PPAAfter = out.PPABefore
		return out, nil
	}
	optResults, err := hls.CoSimulate(optDesign, optProg, kernel, vectors)
	stillEquiv := err == nil
	if stillEquiv {
		for i, r := range optResults {
			if !r.RTLValid || r.RTL != refResults[i] {
				stillEquiv = false
				break
			}
		}
	}
	improved := optDesign.PPA.LatencyCyc < design.PPA.LatencyCyc ||
		(bottleneck == "area" && optDesign.PPA.AreaGates < design.PPA.AreaGates)
	if stillEquiv && improved {
		out.PPAAfter = optDesign.PPA
		out.RepairedSource = resp.Text
		out.Optimized = true
		log("ppa-optimization", fmt.Sprintf("latency %d -> %d cycles",
			design.PPA.LatencyCyc, optDesign.PPA.LatencyCyc), true)
	} else {
		out.PPAAfter = out.PPABefore
		log("ppa-optimization", "no safe improvement found; keeping baseline", true)
	}
	return out, nil
}
