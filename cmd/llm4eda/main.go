// Command llm4eda is the CLI for the reproduction. Every framework runs
// through the unified eda front door — the dispatch table is generated
// from the eda registry, so a newly registered pipeline becomes a
// subcommand without CLI changes — plus the experiment regenerator and
// the benchmark listing.
//
// Usage:
//
//	llm4eda [-cpuprofile F] [-memprofile F] <command> ...
//	llm4eda <framework> [-tier T] [-seed N] [-workers N] [-timeout D]
//	        [-p k=v ...] [-v] [-json] [problem-id]  run one framework (see list)
//	llm4eda exp [-full] [-seed N] [-timeout D] [-v] <E1..E12|all>
//	llm4eda list                               frameworks, problems, kernels
//	llm4eda serve [-addr A] [-workers N] [-queue N]  run the EDA job service
//
// tiers: small | medium | large | frontier
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"llm4eda/eda"
	"llm4eda/internal/benchset"
	"llm4eda/internal/experiments"
	"llm4eda/internal/repair"
	"llm4eda/internal/simfarm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "llm4eda:", err)
		os.Exit(1)
	}
}

// command is one dispatch-table entry.
type command struct {
	name    string
	summary string
	run     func(args []string) error
}

// commandTable builds the full dispatch table: one generated entry per
// registered eda pipeline, plus the experiment and listing commands.
func commandTable() []command {
	var cmds []command
	for _, name := range eda.Frameworks() {
		p, _ := eda.DefaultRegistry().Lookup(name)
		fw := name // capture
		cmds = append(cmds, command{
			name:    fw,
			summary: p.Doc,
			run:     func(args []string) error { return runFramework(fw, args) },
		})
	}
	cmds = append(cmds,
		command{name: "exp", summary: "regenerate paper artifacts (E1..E12|all)", run: cmdExp},
		command{name: "list", summary: "list frameworks, benchmark problems and repair kernels", run: func([]string) error { return cmdList() }},
		command{name: "serve", summary: "run the EDA job service (queued jobs, SSE progress, shared caches)", run: cmdServe},
		command{name: "loadgen", summary: "drive a live serve with mixed traffic and record latency/cache-hit percentiles", run: cmdLoadgen},
	)
	sort.Slice(cmds, func(i, j int) bool { return cmds[i].name < cmds[j].name })
	return cmds
}

func run(args []string) error {
	// Global profiling flags precede the subcommand, so any real
	// pipeline run can be profiled as-is: perf work on the simulator
	// engine is driven by profiles of real workloads, not just
	// micro-benchmarks. Parsing stops at the first non-flag argument.
	global := flag.NewFlagSet("llm4eda", flag.ContinueOnError)
	cpuprofile := global.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := global.String("memprofile", "", "write a heap profile taken at exit to this file")
	global.Usage = usage
	if err := global.Parse(args); err != nil {
		return err
	}
	args = global.Args()
	if len(args) == 0 {
		usage()
		return fmt.Errorf("a subcommand is required")
	}
	switch args[0] {
	case "help", "-h", "--help":
		usage()
		return nil
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "llm4eda: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "llm4eda: memprofile:", err)
			}
		}()
	}
	for _, c := range commandTable() {
		if c.name == args[0] {
			return c.run(args[1:])
		}
	}
	usage()
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: llm4eda <command> [flags] [args]")
	fmt.Fprintln(os.Stderr, "\ncommands:")
	for _, c := range commandTable() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", c.name, c.summary)
	}
	fmt.Fprint(os.Stderr, `
framework flags: [-tier T] [-seed N] [-workers N] [-timeout D] [-p k=v ...] [-v] [-json] [problem-id]
tiers: small | medium | large | frontier
`)
}

// paramFlags collects repeated -p name=value framework knobs.
type paramFlags map[string]float64

func (p paramFlags) String() string { return fmt.Sprintf("%v", map[string]float64(p)) }

func (p paramFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("param must be name=value, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("param %q: %v", name, err)
	}
	p[name] = f
	return nil
}

// runFramework drives one registered pipeline through eda.Run with the
// shared flag set.
func runFramework(name string, args []string) error {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	tier := fs.String("tier", "", "model tier (small|medium|large|frontier)")
	seed := fs.Uint64("seed", 0, "run seed (0 selects the default)")
	workers := fs.Int("workers", 0, "batch-evaluation workers (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "wall-clock bound for the whole run (0 = none)")
	verbose := fs.Bool("v", false, "stream per-candidate and per-LLM-call events")
	quiet := fs.Bool("q", false, "suppress the event stream entirely")
	jsonOut := fs.Bool("json", false, "emit the final report as JSON on stdout (progress moves to stderr)")
	params := paramFlags{}
	fs.Var(params, "p", "framework knob as name=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := eda.Spec{
		Framework: name,
		Run: eda.RunSpec{
			Seed: *seed, Tier: *tier, Workers: *workers, Deadline: *timeout,
		},
		Params: params,
	}
	if fs.NArg() > 1 {
		return fmt.Errorf("%s takes at most one problem id, got %d", name, fs.NArg())
	}
	if fs.NArg() == 1 {
		spec.Problem = fs.Arg(0)
	}
	opts := []eda.Option{}
	if !*quiet {
		// With -json, stdout is reserved for the machine-readable report;
		// the human progress stream moves to stderr.
		progress := os.Stdout
		if *jsonOut {
			progress = os.Stderr
		}
		// The farm's traffic follows the run's done: line, so a spec that
		// fails validation prints neither.
		printer := eda.ProgressPrinter(progress, *verbose)
		before := simfarm.Default().Stats()
		opts = append(opts, eda.WithSink(eda.SinkFunc(func(ev eda.Event) {
			printer.Emit(ev)
			if ev.Kind == eda.EventRunEnd {
				printCacheStats(progress, simfarm.Default().Stats().Delta(before))
			}
		})))
	}
	report, err := eda.Run(context.Background(), spec, opts...)
	if report != nil {
		if perr := printReport(report, *jsonOut); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// printReport renders the final report: the CLI table, or — under -json —
// the same wire encoding the serve API returns for its jobs, so scripts
// parse one format no matter which entry point ran the spec.
func printReport(report *eda.Report, asJSON bool) error {
	if !asJSON {
		fmt.Print(report.Render())
		return nil
	}
	b, err := report.JSON()
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, b, "", "  "); err != nil {
		return err
	}
	pretty.WriteByte('\n')
	_, err = os.Stdout.Write(pretty.Bytes())
	return err
}

func cmdExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	full := fs.Bool("full", false, "run at full scale (slow; used for EXPERIMENTS.md)")
	seed := fs.Uint64("seed", 1, "experiment seed")
	timeout := fs.Duration("timeout", 0, "wall-clock bound for the run (0 = none)")
	verbose := fs.Bool("v", false, "print simfarm cache counters after each experiment")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("exp needs one argument: E1..E12 or all")
	}
	scale := experiments.ScaleQuick
	if *full {
		scale = experiments.ScaleFull
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	r := experiments.Runner{Scale: scale, Seed: *seed}
	ids := []string{fs.Arg(0)}
	if fs.Arg(0) == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		before := simfarm.Default().Stats()
		exp, err := r.ByID(ctx, id)
		if err != nil {
			return err
		}
		fmt.Println(exp.Render())
		if *verbose {
			printCacheStats(os.Stdout, simfarm.Default().Stats().Delta(before))
			fmt.Println()
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// printCacheStats prints the farm's traffic between two snapshots, one
// line per cache layer. A CLI process runs nothing else on the farm, so
// the difference counts only the command's own cache lookups.
func printCacheStats(w io.Writer, st simfarm.FarmStats) {
	for _, l := range st.Layers() {
		fmt.Fprintf(w, "[simfarm] cache %-6s hits=%d misses=%d computes=%d evictions=%d entries=%d",
			l.Name, l.Hits, l.Misses, l.Computes, l.Evictions, l.Len)
		if l.Name == "lint" {
			fmt.Fprintf(w, " rejects=%d", st.LintRejects)
		}
		fmt.Fprintln(w)
	}
}

func cmdList() error {
	fmt.Println("frameworks (run with: llm4eda <framework> [flags] [problem-id]):")
	for _, name := range eda.Frameworks() {
		p, _ := eda.DefaultRegistry().Lookup(name)
		knobs := ""
		if len(p.Params) > 0 {
			knobs = " (knobs: " + strings.Join(p.Params, ", ") + ")"
		}
		fmt.Printf("  %-12s %s%s\n", name, p.Doc, knobs)
	}
	fmt.Println("\nbenchmark problems (VerilogEval-style suite):")
	for _, p := range benchset.Suite() {
		fmt.Printf("  %-12s d%d checks=%-4d %s\n", p.ID, p.Difficulty, p.Checks(), firstSentence(p.Spec))
	}
	fmt.Println("\nrepair kernels (Fig. 2 suite):")
	for _, k := range repair.BenchKernels() {
		fmt.Printf("  %-20s classes=%s\n", k.ID, strings.Join(k.Classes, ","))
	}
	return nil
}

func firstSentence(s string) string {
	if i := strings.Index(s, ": "); i > 0 && i < 60 {
		return s[:i]
	}
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}
