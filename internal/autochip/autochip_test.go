package autochip

import (
	"context"
	"testing"

	"llm4eda/internal/benchset"
	"llm4eda/internal/llm"
)

func TestEvaluateReference(t *testing.T) {
	p := benchset.ByID("adder4")
	c := Evaluate(context.Background(), p, p.Reference)
	if !c.Verdict.Pass() {
		t.Fatalf("reference fails: %+v", c.Verdict)
	}
	if c.Feedback != "" {
		t.Errorf("passing candidate has feedback %q", c.Feedback)
	}
}

func TestEvaluateBrokenCandidate(t *testing.T) {
	p := benchset.ByID("adder4")
	broken := "module adder4(input [3:0] a, input [3:0] b, input cin, output [3:0] sum, output cout);\n" +
		"  assign {cout, sum} = a - b + cin;\nendmodule\n"
	c := Evaluate(context.Background(), p, broken)
	if c.Verdict.Pass() {
		t.Fatal("broken candidate passes")
	}
	if c.Feedback == "" {
		t.Error("no feedback for failing candidate")
	}
}

func TestEvaluateSyntaxError(t *testing.T) {
	p := benchset.ByID("adder4")
	c := Evaluate(context.Background(), p, "module adder4(input a; endmodule")
	if c.Verdict.Compiled {
		t.Error("syntax error marked compiled")
	}
	if c.Feedback == "" {
		t.Error("no compiler feedback")
	}
}

func TestRunSolvesEasyProblem(t *testing.T) {
	p := benchset.ByID("and4")
	res, err := Run(context.Background(), p, Options{
		Model: llm.NewSimModel(llm.TierFrontier, 2),
		K:     3,
		Depth: 3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Solved {
		t.Fatalf("frontier model failed and4: %+v", res.Best.Verdict)
	}
	if res.TokensIn == 0 || res.TokensOut == 0 {
		t.Error("token accounting missing")
	}
}

func TestFeedbackHelpsFrontierMoreThanSmall(t *testing.T) {
	// Depth>1 (feedback) vs pure sampling at equal candidate budget:
	// the frontier model gains more from feedback — the paper's central
	// AutoChip finding.
	solveRate := func(tier llm.Tier, k, depth int, seeds int) float64 {
		solved := 0
		total := 0
		for _, p := range benchset.Suite() {
			if p.Difficulty < 3 {
				continue // feedback dynamics show on the harder problems
			}
			for s := 0; s < seeds; s++ {
				res, err := Run(context.Background(), p, Options{
					Model: llm.NewSimModel(tier, uint64(s)*1000+7),
					K:     k,
					Depth: depth,
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				total++
				if res.Solved {
					solved++
				}
			}
		}
		return float64(solved) / float64(total)
	}
	// Budget 6 candidates each way.
	frontierFeedback := solveRate(llm.TierFrontier, 1, 6, 2)
	frontierSampling := solveRate(llm.TierFrontier, 6, 1, 2)
	if frontierFeedback < frontierSampling {
		t.Errorf("frontier: feedback %.2f < sampling %.2f; AutoChip dynamic inverted",
			frontierFeedback, frontierSampling)
	}
}

func TestStructuredFlow(t *testing.T) {
	solvedNoHuman := 0
	for _, p := range benchset.EightDesignSet() {
		res, err := StructuredFlow(context.Background(), p, llm.NewSimModel(llm.TierLarge, 13), 8)
		if err != nil {
			t.Fatalf("StructuredFlow(%s): %v", p.ID, err)
		}
		if res.Solved && res.HumanInterventions == 0 {
			solvedNoHuman++
		}
		if res.OwnTBChecks == 0 {
			t.Errorf("%s: generated testbench has no checks", p.ID)
		}
	}
	// The paper: about half the GPT-4 runs needed no human feedback.
	if solvedNoHuman < 2 {
		t.Errorf("only %d/8 designs solved without human feedback", solvedNoHuman)
	}
}
