// Quickstart: the canonical demo of the unified eda front door. One
// Spec — framework name, problem, execution envelope — drives a design
// through the full LLM-powered EDA flow (Fig. 1/6 of the paper) while
// the run's event stream (flow phases, scored candidates, LLM calls)
// prints live. The same Spec shape reaches every framework in
// the suite: swap Framework for "autochip", "slt", "repair", ... and
// eda.Run does the rest.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"

	"llm4eda/eda"
	"llm4eda/internal/benchset"
	"llm4eda/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// The 4-bit carry adder from the benchmark suite: the agent only sees
	// the natural-language spec; the testbench is the signoff oracle.
	problem := benchset.ByID("adder4")
	fmt.Println("specification:")
	fmt.Println(" ", problem.Spec)
	fmt.Println()

	spec := eda.Spec{
		Framework: "agent",
		Problem:   "adder4",
		// A GPT-4o-class simulated model; swap the tier to explore weaker
		// assistants ("small" | "medium" | "large" | "frontier").
		Run: eda.RunSpec{Tier: "frontier", Seed: 2026},
	}

	// The event stream is the progress channel of the new API: phases,
	// candidates and LLM calls arrive as the run executes.
	sink := eda.ProgressPrinter(os.Stdout, false)
	report, err := eda.Run(context.Background(), spec, eda.WithSink(sink))
	if err != nil {
		return err
	}

	fmt.Println()
	fmt.Print(report.Render())

	// Detail carries the framework-native result for callers that need
	// more than the uniform envelope — here, the agent's per-stage report.
	flow := report.Detail.([]*core.Report)[0]
	fmt.Println()
	fmt.Println(flow.Render())
	fmt.Println("generated design:")
	fmt.Println(flow.Design.Source)
	if !flow.Verdict.Pass() {
		return fmt.Errorf("design did not pass signoff: %s", flow.Verdict)
	}
	fmt.Println("signoff: all testbench checks pass")
	return nil
}
