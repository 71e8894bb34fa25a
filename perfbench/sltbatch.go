package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"llm4eda/eda"
	"llm4eda/internal/gp"
	"llm4eda/internal/slt"
)

// sltMaxInsts is the processor-model measurement window the slt and gp
// pipelines score programs under.
const sltMaxInsts = 400_000

// sltOutcome is one in-process eda.Run of an slt-batch spec.
type sltOutcome struct {
	specIdx int
	report  *eda.Report
	err     error
	// evalMS are the gaps between consecutive scored programs of the run:
	// the wait for each next verified result as the caller's sink sees it.
	// The first program also pays for scoring the seed pool, so it is left
	// out.
	evalMS sample
}

// runSLTSpec runs one spec through eda.Run with a sink that timestamps
// every scored program, and records the run as a span tree when traced.
func runSLTSpec(ctx context.Context, specs []eda.Spec, idx int, tr *tracer) *sltOutcome {
	var mu sync.Mutex
	var stamps []time.Time
	sink := eda.SinkFunc(func(ev eda.Event) {
		if ev.Kind == eda.EventCandidate {
			mu.Lock()
			stamps = append(stamps, time.Now())
			mu.Unlock()
		}
	})
	o := &sltOutcome{specIdx: idx % len(specs)}
	start := time.Now()
	o.report, o.err = eda.Run(ctx, specs[o.specIdx], eda.WithSink(sink))
	end := time.Now()
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(stamps); i++ {
		o.evalMS = append(o.evalMS, ms(stamps[i].Sub(stamps[i-1])))
	}
	if tr != nil {
		job := "spec-" + strconv.Itoa(idx)
		root := tr.add(0, "eda.run", job, start, end, false)
		for i := 1; i < len(stamps); i++ {
			tr.add(root, "slt.eval", job, stamps[i-1], stamps[i], false)
		}
	}
	return o
}

// sltResult is the part of a report that must repeat for a seed.
type sltResult struct{ bestWatts, evals float64 }

func sltResultOf(r *eda.Report) sltResult {
	return sltResult{r.Metrics["best_watts"], r.Metrics["evals"]}
}

// sltPass runs the spec list round-robin, serially, in whole rounds until
// the window closes, so that every run measures the same mix of specs.
func sltPass(cfg *config, specs []eda.Spec, tr *tracer) ([]*sltOutcome, time.Duration) {
	var outs []*sltOutcome
	start := time.Now()
	for i := 0; i%len(specs) != 0 || time.Since(start) < cfg.window; i++ {
		outs = append(outs, runSLTSpec(context.Background(), specs, i, tr))
	}
	return outs, time.Since(start)
}

// sltRun is the slt-batch run: set-up samples, the measured pass, and the
// determinism gate.
func sltRun(cfg *config) (*runResult, error) {
	res := &runResult{layers: newMetrics(perLayer)}
	setups, err := sltSetupSamples(cfg)
	if err != nil {
		return nil, err
	}
	res.setupS = setups.quantile(0.5)
	specs, err := sltSetup(cfg)
	if err != nil {
		return nil, err
	}
	first := map[int]*eda.Report{}
	gate := func(outs []*sltOutcome) {
		var c check
		for _, o := range outs {
			c.attempted++
			if o.err != nil {
				c.failedJobs++
				c.note("spec %d: %v", o.specIdx, o.err)
				continue
			}
			if prev, ok := first[o.specIdx]; !ok {
				first[o.specIdx] = o.report
			} else if sltResultOf(prev) != sltResultOf(o.report) {
				c.wrong++
				c.note("spec %d: best_watts/evals %v then %v", o.specIdx, sltResultOf(prev), sltResultOf(o.report))
			}
		}
		res.check.add(c)
	}
	summarize := func(outs []*sltOutcome, wall time.Duration) *summary {
		s := &summary{wall: wall}
		for _, o := range outs {
			if o.err == nil {
				s.jobs++
				s.evals += int(o.report.Metrics["evals"])
				s.latencyMS = append(s.latencyMS, o.evalMS...)
			}
		}
		return s
	}

	outs, wall := sltPass(cfg, specs, nil)
	rss, err := vmHWMMB("self")
	if err != nil {
		return nil, err
	}
	res.plain = summarize(outs, wall)
	res.plain.rssMB = rss
	gate(outs)
	var tracedOuts []*sltOutcome
	if cfg.trace {
		res.tracer = newTracer()
		var tw time.Duration
		tracedOuts, tw = sltPass(cfg, specs, res.tracer)
		res.traced = summarize(tracedOuts, tw)
		gate(tracedOuts)
	}
	// Every spec must have run twice with the same result; specs the
	// window did not repeat run again here, untimed.
	seen := map[int]int{}
	for _, o := range append(outs, tracedOuts...) {
		seen[o.specIdx]++
	}
	var extra []*sltOutcome
	for i := range specs {
		for n := seen[i]; n < 2; n++ {
			extra = append(extra, runSLTSpec(context.Background(), specs, i, nil))
		}
	}
	gate(extra)
	if cfg.trace && res.check.ok() {
		if err := sltLayers(cfg, res.layers, tracedOuts, specs, first); err != nil {
			res.check.wrong++
			res.check.note("layer timing: %v", err)
		}
	}
	return res, nil
}

// sltLayers sets the per-layer metrics of slt-batch from the traced pass
// and from direct timings over every spec's final pool.
func sltLayers(cfg *config, m *metrics, outs []*sltOutcome, specs []eda.Spec, first map[int]*eda.Report) error {
	var pipeline sample
	perFW := map[string]sample{}
	var evals, fails float64
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		d := ms(o.report.Elapsed)
		pipeline = append(pipeline, d)
		fw := o.report.Framework
		perFW[fw] = append(perFW[fw], d)
		if fw == "slt" {
			evals += o.report.Metrics["evals"]
			fails += o.report.Metrics["compile_fails"]
		}
	}
	m.pct("eda.pipeline_ms.p50", pipeline, 0.5)
	m.pct("eda.pipeline_ms.p99", pipeline, 0.99)
	for fw, s := range perFW {
		m.pct("eda.pipeline_ms."+fw+".p50", s, 0.5)
	}
	m.set("slt.compile_fail_ratio", ratio(fails, evals))
	timeFrontDoor(cfg, m, specs)

	// The final pools: every pool snippet of each slt spec and the best
	// individual of each gp spec, in spec order.
	var programs []string
	var bestWatts float64
	for i := range specs {
		bestWatts += first[i].Metrics["best_watts"]
		switch d := first[i].Detail.(type) {
		case *slt.Result:
			for _, sn := range d.Pool {
				programs = append(programs, sn.Source)
			}
		case *gp.Result:
			programs = append(programs, d.Best.Source)
		}
	}
	m.set("slt.best_watts", bestWatts)
	return timeBoomLayers(cfg, m, programs)
}

// sltSetupSamples times cfg.setupReps fresh processes of this benchmark
// from spawn until they reach the first timed call of slt-batch.
func sltSetupSamples(cfg *config) (sample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out sample
	for i := 0; i < cfg.setupReps; i++ {
		cmd := exec.Command(self, "-setup-probe", "-smoke="+strconv.FormatBool(cfg.smoke),
			"-workload", sltBatch, "-seed", strconv.FormatUint(cfg.seed, 10))
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start)
		werr := cmd.Wait()
		if rerr != nil || werr != nil || line != "ready\n" {
			return nil, fmt.Errorf("setup probe: read %v, exit %v, output %q", rerr, werr, line)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// sltSetup is everything slt-batch does before its first timed call: it
// derives the specs from the seed and validates them.
func sltSetup(cfg *config) ([]eda.Spec, error) {
	reg := eda.DefaultRegistry()
	specs := sltSpecs(cfg.seed, cfg.smoke)
	for _, spec := range specs {
		if err := reg.Normalize(spec).ValidateIn(reg); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// setupProbe is the child side of sltSetupSamples.
func setupProbe(cfg *config) error {
	if _, err := sltSetup(cfg); err != nil {
		return err
	}
	_, err := os.Stdout.WriteString("ready\n")
	return err
}
