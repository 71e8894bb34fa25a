package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"llm4eda/eda"
)

// servePass is one closed-loop window against one fresh server.
type servePass struct {
	outs          []*outcome
	wall          time.Duration
	before, after *statsReply
	rssMB         float64
}

// serveGen returns the spec generator of a serve workload for one seed
// stream.
func serveGen(workload string, seed, stream uint64) func(i int) (eda.Spec, int) {
	if workload == serveMixed {
		return func(i int) (eda.Spec, int) { return mixedSpec(seed, stream, i) }
	}
	return func(i int) (eda.Spec, int) { return coldSpec(seed, stream, i), -1 }
}

// nClients is the closed-loop client count: two, or fewer on a host with
// fewer CPUs, so load never uses more connections than the host has CPUs.
func nClients() int { return min(2, runtime.NumCPU()) }

// runServePass warms srv up, then drives it for the window and collects
// the outcomes, the stats delta and the server's peak RSS.
func runServePass(cfg *config, srv *server, tr *tracer) (*servePass, error) {
	clients := []*loadClient{{base: srv.base, http: srv.http}}
	for len(clients) < nClients() {
		clients = append(clients, &loadClient{base: srv.base,
			http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}})
	}
	defer func() {
		for _, c := range clients[1:] {
			c.http.CloseIdleConnections()
		}
	}()
	// Warm-up: the same traffic shape on its own seed stream, so the
	// farm's parse caches and the hot reports are in place when timing
	// starts, as they are in a long-running service.
	loop{maxJobs: cfg.warmupJobs, next: serveGen(cfg.workload, cfg.seed, streamWarm)}.run(clients)
	p := &servePass{}
	var err error
	if p.before, err = srv.stats(); err != nil {
		return nil, err
	}
	// The server keeps every finished job, so its memory grows with the
	// jobs served: peak RSS is read at a fixed job count, not at the end
	// of a window whose job count depends on the speed of the build.
	var rssErr error
	readRSS := func() { p.rssMB, rssErr = vmHWMMB(strconv.Itoa(srv.cmd.Process.Pid)) }
	p.outs, p.wall = loop{window: cfg.window, next: serveGen(cfg.workload, cfg.seed, streamCold), tracer: tr,
		onDone: func(done int) {
			if done == cfg.rssJobs {
				readRSS()
			}
		}}.run(clients)
	if len(p.outs) < cfg.rssJobs {
		readRSS()
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if p.after, err = srv.stats(); err != nil {
		return nil, err
	}
	return p, nil
}

// serveRun is a serve workload's whole run: set-up samples, the measured
// pass, the correctness gate and the drain.
func serveRun(cfg *config) (*runResult, error) {
	res := &runResult{layers: newMetrics(perLayer)}
	var setups sample
	logPath := filepath.Join(cfg.out, fmt.Sprintf("serve-%s-seed%d.log", cfg.workload, cfg.seed))
	// Set-up is sampled on throwaway servers; the last spawn serves the
	// measured pass, so every pass meets a fresh server.
	for i := 1; i < cfg.setupReps; i++ {
		srv, err := startServer(cfg.bin, logPath)
		if err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())
		if err := srv.stop(); err != nil {
			return nil, err
		}
	}
	pass := func(tr *tracer) (*servePass, error) {
		srv, err := startServer(cfg.bin, logPath)
		if err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())
		p, err := runServePass(cfg, srv, tr)
		if err == nil {
			res.check.add(checkServe(cfg, p))
		}
		if serr := srv.stop(); err == nil && serr != nil {
			err = serr
		}
		return p, err
	}
	plain, err := pass(nil)
	if err != nil {
		return nil, err
	}
	res.setupS = setups.quantile(0.5)
	res.plain = serveSummary(plain)
	if !cfg.trace {
		return res, nil
	}
	res.tracer = newTracer()
	traced, err := pass(res.tracer)
	if err != nil {
		return nil, err
	}
	res.traced = serveSummary(traced)
	if err := serveLayers(cfg, res.layers, traced); err != nil {
		res.check.wrong++
		res.check.note("layer timing: %v", err)
	}
	return res, nil
}

// serveSummary reduces a pass to its end-to-end figures.
func serveSummary(p *servePass) *summary {
	s := &summary{wall: p.wall, rssMB: p.rssMB}
	for _, o := range p.outs {
		if o.state == "done" {
			s.latencyMS = append(s.latencyMS, ms(o.latency()))
			s.evals += o.candidates
		}
		if o.err == nil && !o.rejected {
			s.jobs++
		}
	}
	return s
}

// checkServe is the serve correctness gate, run after the window. Every
// job must finish done; every repeat of a hot spec must return the same
// report bytes; and the served OK/Summary/Metrics of every hot spec and
// of a seed-chosen sample of unique specs must equal an in-process
// eda.Run of the same spec.
func checkServe(cfg *config, p *servePass) check {
	var c check
	hotBytes := map[int][]byte{}
	var cold, compare []*outcome
	for _, o := range p.outs {
		c.attempted++
		switch {
		case o.rejected:
			c.rejected++
			continue
		case o.err != nil:
			c.transport++
			c.note("job %d: %v", o.idx, o.err)
			continue
		case o.state != "done":
			c.failedJobs++
			c.note("job %d (%s %s): %s %s", o.idx, o.spec.Framework, o.spec.Problem, o.state, o.status.Error)
			continue
		}
		if o.hot < 0 {
			cold = append(cold, o)
			continue
		}
		if first, ok := hotBytes[o.hot]; !ok {
			hotBytes[o.hot] = o.status.Report
			compare = append(compare, o)
		} else if !bytes.Equal(first, o.status.Report) {
			c.wrong++
			c.note("hot spec %d: job %d report bytes differ from the first copy", o.hot, o.idx)
		}
	}
	// The sample: coldSample unique jobs picked by the seed, taking the
	// frameworks in turn so that every framework of the mix is compared.
	byFW := map[string][]*outcome{}
	var fws []string
	for _, o := range cold {
		if byFW[o.spec.Framework] == nil {
			fws = append(fws, o.spec.Framework)
		}
		byFW[o.spec.Framework] = append(byFW[o.spec.Framework], o)
	}
	for k := 0; k < cfg.coldSample && len(fws) > 0; k++ {
		fw := fws[k%len(fws)]
		jobs := byFW[fw]
		if len(jobs) == 0 {
			continue
		}
		j := int(deriveSeed(cfg.seed, streamSample, k) % uint64(len(jobs)))
		compare = append(compare, jobs[j])
		byFW[fw] = append(jobs[:j:j], jobs[j+1:]...)
	}
	for _, o := range compare {
		if err := sameAsInProcess(o); err != nil {
			c.wrong++
			c.note("job %d (%s %s seed %d): %v", o.idx, o.spec.Framework, o.spec.Problem, o.spec.Run.Seed, err)
		}
	}
	return c
}

// sameAsInProcess runs the job's spec with eda.Run in this process and
// compares OK, Summary and Metrics with the served report.
func sameAsInProcess(o *outcome) error {
	var served eda.ReportWire
	if err := json.Unmarshal(o.status.Report, &served); err != nil {
		return fmt.Errorf("served report: %w", err)
	}
	local, err := eda.Run(context.Background(), o.spec)
	if err != nil {
		return fmt.Errorf("in-process run: %w", err)
	}
	if served.OK != local.OK || served.Summary != local.Summary {
		return fmt.Errorf("served ok=%v %q, in-process ok=%v %q", served.OK, served.Summary, local.OK, local.Summary)
	}
	if len(served.Metrics) != len(local.Metrics) {
		return fmt.Errorf("served metrics %v, in-process %v", served.Metrics, local.Metrics)
	}
	for k, v := range local.Metrics {
		if sv, ok := served.Metrics[k]; !ok || sv != v {
			return fmt.Errorf("metric %s: served %v, in-process %v", k, served.Metrics[k], v)
		}
	}
	return nil
}

// serveLayers sets the per-layer metrics of a serve workload from the
// traced pass, then times the layer entry points directly.
func serveLayers(cfg *config, m *metrics, p *servePass) error {
	var submit, queueWait, unattributed, pipeline, pipeOther, compile, sim, lint sample
	var lat, qwAll, plAll, swAll sample
	perFW := map[string]sample{}
	done, cached, events, rejected := 0, 0, 0, 0
	for _, o := range p.outs {
		if o.rejected {
			rejected++
		}
		if o.state != "done" {
			continue
		}
		done++
		events += o.events
		if o.cached {
			cached++
		}
		submit = append(submit, ms(o.submit()))
		qw, qwN := o.status.phase("queue_wait")
		if qwN > 0 {
			queueWait = append(queueWait, qw)
		}
		pl, plN := o.status.phase("pipeline")
		ls, lsN := o.status.phase("lint_screen")
		cp, cpN := o.status.phase("compile")
		sm, smN := o.status.phase("sim")
		sw, _ := o.status.phase("store_write")
		if plN > 0 {
			pipeline = append(pipeline, pl)
			pipeOther = append(pipeOther, pl-ls-cp-sm)
			perFW[o.spec.Framework] = append(perFW[o.spec.Framework], pl)
		}
		if lsN > 0 {
			lint = append(lint, ls)
		}
		if cpN > 0 {
			compile = append(compile, cp)
		}
		if smN > 0 {
			sim = append(sim, sm)
		}
		unattributed = append(unattributed, o.unattributedMS())
		lat = append(lat, ms(o.latency()))
		qwAll, plAll, swAll = append(qwAll, qw), append(plAll, pl), append(swAll, sw)
	}
	m.pct("edaserver.submit_ms.p50", submit, 0.5)
	m.pct("edaserver.submit_ms.p99", submit, 0.99)
	m.pct("edaserver.queue_wait_ms.p50", queueWait, 0.5)
	m.pct("edaserver.queue_wait_ms.p99", queueWait, 0.99)
	rc := p.after.ReportCache
	hits, misses := float64(rc.Hits-p.before.ReportCache.Hits), float64(rc.Misses-p.before.ReportCache.Misses)
	m.set("edaserver.report_cache.hits", hits)
	m.set("edaserver.report_cache.misses", misses)
	m.set("edaserver.report_cache.hit_ratio", ratio(hits, hits+misses))
	m.set("edaserver.cached_share", ratio(float64(cached), float64(done)))
	m.set("edaserver.sse_events_per_job", ratio(float64(events), float64(done)))
	m.set("edaserver.rejected", float64(rejected))
	m.pct("edaserver.unattributed_ms.p50", unattributed, 0.5)
	// The means add up: latency = submit + queue wait + pipeline + store
	// write + unattributed, job by job and so on average.
	m.set("edaserver.latency_ms.mean", lat.mean())
	m.set("edaserver.submit_ms.mean", submit.mean())
	m.set("edaserver.queue_wait_ms.mean", qwAll.mean())
	m.set("edaserver.pipeline_ms.mean", plAll.mean())
	m.set("edaserver.store_write_ms.mean", swAll.mean())
	m.set("edaserver.unattributed_ms.mean", unattributed.mean())
	m.pct("eda.pipeline_ms.p50", pipeline, 0.5)
	m.pct("eda.pipeline_ms.p99", pipeline, 0.99)
	for fw, s := range perFW {
		m.pct("eda.pipeline_ms."+fw+".p50", s, 0.5)
	}
	m.pct("eda.pipeline_other_ms.p50", pipeOther, 0.5)
	m.pct("verilog.compile_ms.p50", compile, 0.5)
	m.pct("verilog.sim_ms.p50", sim, 0.5)
	m.pct("vlint.lint_screen_ms.p50", lint, 0.5)

	farm := p.after.Farm.sub(p.before.Farm)
	for _, l := range []struct {
		name string
		s    cacheStats
	}{{"parse", farm.Parses}, {"design", farm.Designs}, {"result", farm.Results}, {"lint", farm.Lints}} {
		m.set("simfarm."+l.name+".hits", float64(l.s.Hits))
		m.set("simfarm."+l.name+".misses", float64(l.s.Misses))
		m.set("simfarm."+l.name+".computes", float64(l.s.Computes))
		m.set("simfarm."+l.name+".hit_ratio", ratio(float64(l.s.Hits), float64(l.s.Hits+l.s.Misses)))
	}
	m.set("simfarm.lint_rejects", float64(farm.LintRejects))
	m.set("verilog.vm.tier_a_ops", float64(farm.VM.TierAOps))
	m.set("verilog.vm.tier_b_ops", float64(farm.VM.TierBOps))
	m.set("verilog.vm.generic_ops", float64(farm.VM.GenericOps))
	m.set("verilog.vm.superblocks", float64(farm.VM.SuperBlocks))

	var specs []eda.Spec
	for _, o := range p.outs {
		specs = append(specs, o.spec)
	}
	problems := coldProblems
	if cfg.workload == serveMixed {
		problems = mixedProblems
	}
	timeFrontDoor(cfg, m, specs)
	return timeVerilogLayers(cfg, m, problems)
}
