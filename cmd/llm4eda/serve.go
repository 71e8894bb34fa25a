package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"llm4eda/internal/edaserver"
	"llm4eda/internal/faultinject"
	"llm4eda/internal/simfarm"
)

// cmdServe runs the EDA job service: the eda registry behind a queued,
// streamable HTTP API (see internal/edaserver). The process serves until
// SIGINT/SIGTERM, then drains: intake stops, in-flight jobs finish (up to
// -drain), and the server exits 0 on a clean drain.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8372", "listen address")
	workers := fs.Int("workers", 0, "job-queue workers (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "queued-job bound before 429 backpressure (0 = default 64)")
	drain := fs.Duration("drain", 30*time.Second, "shutdown drain budget before in-flight jobs are cancelled")
	watchdog := fs.Duration("watchdog", 0, "per-job event-staleness window; a running job silent this long is cancelled as wedged (0 = off)")
	faults := fs.String("faults", "", "chaos fault plan, inline JSON or @file (testing only; see internal/faultinject)")
	logLevel := fs.String("log-level", "info", "structured-log threshold: debug, info, warn or error")
	debugAddr := fs.String("debug-addr", "", "optional second listener serving net/http/pprof (kept off the public API address)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments")
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("serve: -log-level: %w", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	var injector *faultinject.Injector
	if *faults != "" {
		raw := []byte(*faults)
		if name, ok := strings.CutPrefix(*faults, "@"); ok {
			b, err := os.ReadFile(name)
			if err != nil {
				return fmt.Errorf("serve: -faults: %w", err)
			}
			raw = b
		}
		plan, err := faultinject.ParsePlan(raw)
		if err != nil {
			return fmt.Errorf("serve: -faults: %w", err)
		}
		injector = faultinject.New(plan)
		fmt.Printf("llm4eda serve: WARNING fault injection armed (%d faults, seed %d) — this server WILL misbehave on purpose\n",
			len(plan.Faults), plan.Seed)
	}

	// Listen before spawning the worker pool: a bad address must not
	// leak a started pool.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	srv := edaserver.New(edaserver.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		Watchdog:   *watchdog,
		Faults:     injector,
		Log:        logger,
	})
	if injector != nil {
		// eda.Run executes on the process-default farm, so the farm-layer
		// fault point arms there too.
		simfarm.Default().SetFaults(injector)
	}
	// The pprof listener is a separate mux on a separate port on
	// purpose: profiling endpoints never ride the public API address.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("serve: -debug-addr: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", httppprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		dsrv := &http.Server{Handler: dmux}
		defer dsrv.Close()
		go func() { _ = dsrv.Serve(dln) }()
		fmt.Printf("llm4eda serve: pprof on http://%s/debug/pprof/\n", dln.Addr())
	}
	httpSrv := &http.Server{Handler: srv}
	// The handler is in place before the banner: a client that signals as
	// soon as it reads "listening on" must get a drain, not the default
	// terminate-on-SIGTERM.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	fmt.Printf("llm4eda serve: listening on http://%s (POST /v1/jobs, GET /v1/stats, GET /v1/metrics)\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case sig := <-sigCh:
		fmt.Printf("llm4eda serve: %v, draining (budget %v)\n", sig, *drain)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the job queue first: intake flips to 503, in-flight jobs
	// finish, and every job's SSE stream closes with its terminal event —
	// which is what lets the HTTP shutdown afterwards release the
	// long-lived event connections promptly. A drain-budget overrun
	// cancels in-flight jobs but still waits for the workers to unwind,
	// never leaving work half-running.
	forced := false
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("serve: drain: %w", err)
	} else if err != nil {
		forced = true
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("serve: %w", err)
	}
	// The two exit lines are distinct on purpose: `make serve-smoke`
	// greps for the clean-drain marker, so a forced cancel can never
	// masquerade as a clean drain in CI.
	if forced {
		fmt.Println("llm4eda serve: drain budget exceeded, in-flight jobs cancelled, bye")
	} else {
		fmt.Println("llm4eda serve: drained, bye")
	}
	return nil
}
