package main

import (
	"fmt"
	"time"

	"llm4eda/eda"
	"llm4eda/internal/benchset"
	"llm4eda/internal/boom"
	"llm4eda/internal/chdl"
	"llm4eda/internal/isa"
	"llm4eda/internal/llm"
	"llm4eda/internal/slt"
	"llm4eda/internal/verilog"
	"llm4eda/internal/vlint"
)

// This file times layer entry points directly, outside any timed window
// of the traced run: each call is repeated for cfg.layerBudget (and at
// least three times) and its mean is reported.

// timeFrontDoor times the service's front-door checks (Registry.Normalize
// plus Spec.ValidateIn, which edaserver runs at submit and eda.Run runs
// again) over the distinct specs of the run.
func timeFrontDoor(cfg *config, m *metrics, specs []eda.Spec) {
	reg := eda.DefaultRegistry()
	var per sample
	for i, spec := range specs {
		if i == 16 {
			break
		}
		per = append(per, ms(timeEach(cfg.layerBudget, 3, func() {
			_ = reg.Normalize(spec).ValidateIn(reg) // served specs are valid; only the time matters
		})))
	}
	m.set("eda.validate_ms", per.mean())
}

// timeVerilogLayers times design generation, the Verilog front end and
// simulator, and the linter on each problem's reference design and
// testbench. Lowering to bytecode runs inside Elaborate.
func timeVerilogLayers(cfg *config, m *metrics, problems []string) error {
	var gen, parse, elab, compile, run, lint sample
	for _, id := range problems {
		p := benchset.ByID(id)
		if p == nil {
			return fmt.Errorf("unknown problem %s", id)
		}
		ref, tb := p.Reference, p.Testbench()
		model := llm.NewSimModel(llm.TierFrontier, cfg.seed)
		req := llm.Request{System: llm.SystemVerilogDesigner, Prompt: llm.BuildDesignPrompt(p.Spec),
			Task: llm.VerilogGen{ProblemID: p.ID, Spec: p.Spec, Reference: p.Reference, Difficulty: p.Difficulty}}
		gen = append(gen, us(timeEach(cfg.layerBudget, 3, func() { _, _ = model.Generate(req) })))

		var err error
		parse = append(parse, us(timeEach(cfg.layerBudget, 3, func() {
			if _, e := verilog.Parse(ref); e != nil {
				err = e
			}
			if _, e := verilog.Parse(tb); e != nil {
				err = e
			}
		})))
		// Elaborate needs a fresh parse each time (bound bodies are
		// memoized per syntax tree), so only the elaboration is timed.
		var elabTotal time.Duration
		n := 0
		for start := time.Now(); n < 3 || time.Since(start) < cfg.layerBudget; n++ {
			f1, e1 := verilog.Parse(ref)
			f2, e2 := verilog.Parse(tb)
			if e1 != nil || e2 != nil {
				return fmt.Errorf("%s: parse: %v %v", id, e1, e2)
			}
			t := time.Now()
			if _, e := verilog.Elaborate(verilog.MergeSources(f1, f2), "tb"); e != nil {
				return fmt.Errorf("%s: elaborate: %w", id, e)
			}
			elabTotal += time.Since(t)
		}
		elab = append(elab, us(elabTotal/time.Duration(n)))
		var cd *verilog.CompiledDesign
		compile = append(compile, us(timeEach(cfg.layerBudget, 3, func() {
			var e error
			if cd, e = verilog.CompileSources("tb", ref, tb); e != nil {
				err = e
			}
		})))
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		run = append(run, us(timeEach(cfg.layerBudget, 3, func() {
			if _, e := cd.Run(verilog.SimOptions{}); e != nil {
				err = e
			}
		})))
		lint = append(lint, us(timeEach(cfg.layerBudget, 3, func() {
			if _, e := vlint.LintSource(ref, p.TopModule); e != nil {
				err = e
			}
		})))
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	m.set("llm.generate_us", gen.mean())
	m.set("verilog.parse_us", parse.mean())
	m.set("verilog.elaborate_us", elab.mean())
	m.set("verilog.compile_us", compile.mean())
	m.set("verilog.run_us", run.mean())
	m.set("vlint.lint_us", lint.mean())
	return nil
}

// timeBoomLayers times the slt-batch stack (C parse, ISA compile, the
// processor model) over the given final-pool programs, and SLT snippet
// generation. The simulated instruction and cycle counts are sums over
// the programs and repeat exactly for a seed.
func timeBoomLayers(cfg *config, m *metrics, programs []string) error {
	opts := boom.RunOptions{MaxInsts: sltMaxInsts}
	var parse, compile, run sample
	var insts, cycles uint64
	var boomTime time.Duration
	for _, src := range programs {
		var prog *chdl.Program
		var err error
		parse = append(parse, us(timeEach(cfg.layerBudget, 3, func() { prog, err = chdl.ParseC(src) })))
		if err != nil {
			return fmt.Errorf("pool program: parse: %w", err)
		}
		var compiled *isa.Program
		compile = append(compile, us(timeEach(cfg.layerBudget, 3, func() { compiled, err = isa.Compile(prog, "main") })))
		if err != nil {
			return fmt.Errorf("pool program: compile: %w", err)
		}
		var res *boom.Result
		d := timeEach(cfg.layerBudget, 3, func() { res = boom.Run(compiled, opts) })
		run = append(run, ms(d))
		insts += res.Insts
		cycles += res.Cycles
		boomTime += d
	}
	m.set("chdl.parse_us", parse.mean())
	m.set("isa.compile_us", compile.mean())
	m.set("boom.run_ms", run.mean())
	m.set("boom.minsts_per_s", ratio(float64(insts)/1e6, boomTime.Seconds()))
	m.set("boom.insts", float64(insts))
	m.set("boom.cycles", float64(cycles))

	var examples []llm.SLTExample
	for _, src := range slt.SeedExamples()[:3] {
		examples = append(examples, llm.SLTExample{Source: src, Score: 1})
	}
	model := llm.NewSimModel(llm.TierLarge, cfg.seed)
	req := llm.Request{System: llm.SystemSLT, Prompt: llm.BuildSCoTPrompt(examples),
		Task: llm.SLTGen{Examples: examples, UseSCoT: true}, Temperature: 0.7}
	m.set("llm.generate_us", us(timeEach(cfg.layerBudget, 3, func() { _, _ = model.Generate(req) })))
	return nil
}

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }
