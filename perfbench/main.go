// Command perfbench is the repository benchmark. It runs one workload for
// a fixed wall-clock window, checks that every output is correct, and
// prints one JSON result line: the end-to-end metrics, or with -trace 1
// the per-layer metrics of a separate traced run. README.md describes the
// workloads and metrics; run.sh builds everything and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	trace    bool
	smoke    bool
	bin      string // the llm4eda binary the serve workloads spawn
	out      string // directory for result records, traces and serve logs

	window      time.Duration // the measured window of one pass
	warmupJobs  int           // untimed serve jobs before the window
	rssJobs     int           // window jobs after which a server's peak RSS is read
	setupReps   int           // set-up samples behind setup_s
	coldSample  int           // unique served jobs re-run in process
	layerBudget time.Duration // per entry point, for direct layer timing
}

// check counts the outcomes the correctness gate saw.
type check struct {
	attempted  int
	rejected   int // refused by backpressure (429)
	transport  int // transport or protocol errors
	failedJobs int // jobs or runs that ended in an error
	wrong      int // outputs that disagree with the reference
	notes      []string
}

func (c *check) note(format string, args ...any) {
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *check) add(o check) {
	c.attempted += o.attempted
	c.rejected += o.rejected
	c.transport += o.transport
	c.failedJobs += o.failedJobs
	c.wrong += o.wrong
	for _, n := range o.notes {
		c.note("%s", n)
	}
}

func (c *check) failures() int { return c.rejected + c.transport + c.failedJobs + c.wrong }
func (c *check) ok() bool      { return c.failures() == 0 }

// summary is one pass reduced to its end-to-end figures.
type summary struct {
	wall      time.Duration
	jobs      int    // terminal jobs (serve) or eda.Run calls (slt-batch)
	evals     int    // scored candidates or programs
	latencyMS sample // per job (serve) or per scored program (slt-batch)
	rssMB     float64
}

func (s *summary) jobsPerS() float64  { return ratio(float64(s.jobs), s.wall.Seconds()) }
func (s *summary) evalsPerS() float64 { return ratio(float64(s.evals), s.wall.Seconds()) }

// runResult is everything a workload run produced.
type runResult struct {
	check  check
	setupS float64
	plain  *summary // the untraced pass
	traced *summary // the traced pass (trace runs only)
	layers *metrics // per-layer metrics (trace runs only)
	tracer *tracer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every spec seed derives from it")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	bin := fs.String("bin", ".bench_build/llm4eda", "llm4eda binary for the serve workloads")
	out := fs.String("out", ".bench_build/results", "directory for result records, traces and serve logs")
	smoke := fs.Bool("smoke", false, "short settings for a quick harness check")
	probe := fs.Bool("setup-probe", false, "internal: time slt-batch set-up in a fresh process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := &config{workload: *workload, seed: *seed, trace: *trace == 1, smoke: *smoke, bin: *bin, out: *out,
		window: time.Duration(*seconds * float64(time.Second)), warmupJobs: 100, rssJobs: 500,
		setupReps: 11, coldSample: 8, layerBudget: 30 * time.Millisecond}
	if *smoke {
		cfg.warmupJobs, cfg.rssJobs, cfg.setupReps, cfg.coldSample, cfg.layerBudget = 10, 20, 2, 2, time.Millisecond
	}
	if *probe {
		if err := setupProbe(cfg); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 || cfg.window <= 0 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1, -seconds positive, and no arguments given")
		return 2
	}
	var res *runResult
	var err error
	switch cfg.workload {
	case serveMixed, serveCold:
		res, err = serveRun(cfg)
	case sltBatch:
		res, err = sltRun(cfg)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (one of %s)\n", cfg.workload, strings.Join(workloads, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(cfg, res, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.check.ok() {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full result record: the host, the seed, the failure
// counts and the sample count behind every percentile.
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Started  string             `json:"started"`
	Host     host               `json:"host"`
	Clients  int                `json:"clients,omitempty"`
	Counts   map[string]int     `json:"counts"`
	Samples  map[string]int     `json:"samples"`
	Metrics  map[string]float64 `json:"metrics"`
	Notes    []string           `json:"notes,omitempty"`
}

type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// report assembles the metrics of the run, writes the result record and
// the trace under cfg.out, and prints a readable table to stderr, the
// record line and then the result line to stdout.
func report(cfg *config, res *runResult, stdout, stderr io.Writer) error {
	p := res.plain
	var m *metrics
	if !cfg.trace {
		m = newMetrics(endToEnd)
		m.pct("latency_p50_ms", p.latencyMS, 0.5)
		m.pct("latency_p90_ms", p.latencyMS, 0.9)
		m.set("jobs_per_s", p.jobsPerS())
		m.set("evals_per_s", p.evalsPerS())
		m.set("setup_s", res.setupS)
		m.samples["setup_s"] = cfg.setupReps
		m.set("rss_peak_mb", p.rssMB)
	} else {
		m = res.layers
		t := res.traced
		m.pct("latency_p99_ms", p.latencyMS, 0.99)
		m.set("error_ratio", ratio(float64(res.check.failures()), float64(res.check.attempted)))
		self := res.tracer.selfMS()
		for _, name := range selfNames {
			m.set("self_ms."+name, self[name])
		}
		m.set("trace.overhead.latency_p50_ms", t.latencyMS.quantile(0.5)-p.latencyMS.quantile(0.5))
		m.set("trace.overhead.jobs_per_s", p.jobsPerS()-t.jobsPerS())
		m.set("trace.overhead.evals_per_s", p.evalsPerS()-t.evalsPerS())
		m.zero()
	}
	out, err := m.output()
	if err != nil {
		return err
	}
	c := &res.check
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: cfg.trace,
		Started: time.Now().UTC().Format(time.RFC3339), Host: hostInfo(),
		Counts: map[string]int{"attempted": c.attempted, "failed": c.failures(), "rejected": c.rejected,
			"transport_errors": c.transport, "failed_jobs": c.failedJobs, "wrong_outputs": c.wrong},
		Samples: m.samples, Metrics: map[string]float64{}, Notes: c.notes,
	}
	if cfg.workload != sltBatch {
		rec.Clients = nClients()
	}
	for name, v := range out {
		rec.Metrics[name] = v.Value
	}
	recJSON, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace0", cfg.workload, cfg.seed)
	if cfg.trace {
		base = strings.TrimSuffix(base, "0") + "1"
	}
	if err := os.WriteFile(filepath.Join(cfg.out, base+".json"), append(recJSON, '\n'), 0o644); err != nil {
		return err
	}
	if cfg.trace {
		b, err := json.Marshal(map[string]any{"spans": res.tracer.snapshot()})
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(cfg.out, base+"-spans.json"), b, 0o644); err != nil {
			return err
		}
	}

	fmt.Fprintf(stderr, "perfbench %s seed %d: attempted %d, failed %d (rejected %d, transport %d, failed jobs %d, wrong outputs %d)\n",
		cfg.workload, cfg.seed, c.attempted, c.failures(), c.rejected, c.transport, c.failedJobs, c.wrong)
	for _, n := range c.notes {
		fmt.Fprintln(stderr, "  !", n)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		n := ""
		if k, ok := m.samples[d.name]; ok {
			n = fmt.Sprintf("(n=%d)", k)
		}
		fmt.Fprintf(stderr, "  %-36s %14.4f %-6s %s\n", d.name, out[d.name].Value, d.unit, n)
	}
	line, err := json.Marshal(result{Correct: c.ok(), Attempted: c.attempted, Failed: c.failures(), Metrics: out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", recJSON, line)
	return err
}
