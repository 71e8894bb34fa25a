// autochip: the paper's Fig. 4 framework on a hard benchmark problem,
// driven through the eda front door — tree search over candidate designs
// with EDA-tool feedback. The verbose event stream shows every round,
// every model call and every scored candidate as the search runs; the
// structured conversational flow of [10] is contrasted at the end.
//
// Run with: go run ./examples/autochip
package main

import (
	"context"
	"fmt"
	"os"

	"llm4eda/eda"
	"llm4eda/internal/autochip"
	"llm4eda/internal/benchset"
	"llm4eda/internal/llm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "autochip:", err)
		os.Exit(1)
	}
}

func run() error {
	problem := benchset.ByID("det101") // difficulty-5 FSM
	fmt.Println("problem:", problem.ID)
	fmt.Println("spec:   ", problem.Spec)
	fmt.Println()

	// A GPT-4-class model with tree search: 3 candidates per round, up to
	// 4 feedback rounds. Framework knobs travel as Spec params.
	spec := eda.Spec{
		Framework: "autochip",
		Problem:   problem.ID,
		Run:       eda.RunSpec{Tier: "large", Seed: 99},
		Params:    map[string]float64{"k": 3, "depth": 4, "temperature": 0.8},
	}
	report, err := eda.Run(context.Background(), spec,
		eda.WithSink(eda.ProgressPrinter(os.Stdout, true)))
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(report.Render())

	res := report.Detail.([]*autochip.Result)[0]
	fmt.Printf("\nsolved=%v after %d rounds, %d candidates, %d tokens in / %d out\n",
		res.Solved, res.Rounds, res.TotalCandidates, res.TokensIn, res.TokensOut)
	fmt.Println("final verdict:", res.Best.Verdict)
	if res.Best.Feedback != "" {
		fmt.Println("last tool feedback:")
		fmt.Println(res.Best.Feedback)
	}
	fmt.Println("\nfinal design:")
	fmt.Println(res.Best.Source)

	// Contrast with the earlier structured conversational flow [10]:
	// the model also writes its own (coverage-lossy) testbench.
	flow, err := autochip.StructuredFlow(context.Background(), problem,
		llm.NewSimModel(llm.TierLarge, 99), 8)
	if err != nil {
		return err
	}
	fmt.Printf("\nstructured-flow comparison: solved=%v with %d human interventions "+
		"(own testbench had %d checks vs %d in the reference)\n",
		flow.Solved, flow.HumanInterventions, flow.OwnTBChecks, problem.Checks())
	return nil
}
