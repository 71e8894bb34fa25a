package llm

import (
	"strings"
	"testing"

	"llm4eda/internal/benchset"
	"llm4eda/internal/chdl"
	"llm4eda/internal/verilog"
)

func TestDeterminism(t *testing.T) {
	p := benchset.ByID("adder4")
	gen := func() string {
		m := NewSimModel(TierLarge, 42)
		resp, err := m.Generate(Request{
			Prompt: BuildDesignPrompt(p.Spec),
			Task: VerilogGen{
				ProblemID: p.ID, Spec: p.Spec, Reference: p.Reference, Difficulty: p.Difficulty,
			},
			Temperature: 0.7,
		})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		return resp.Text
	}
	if gen() != gen() {
		t.Error("same seed produced different candidates")
	}
}

func TestTierQualityOrdering(t *testing.T) {
	// Over many samples, stronger tiers must pass the testbench more often.
	p := benchset.ByID("alu8")
	passRate := func(tier Tier) float64 {
		m := NewSimModel(tier, 7)
		pass := 0
		const n = 40
		for i := 0; i < n; i++ {
			resp, err := m.Generate(Request{
				Task: VerilogGen{ProblemID: p.ID, Spec: p.Spec, Reference: p.Reference, Difficulty: p.Difficulty},
			})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			res, err := verilog.RunTestbench(resp.Text, p.Testbench(), "tb", verilog.SimOptions{})
			if err == nil && res.Passed() {
				pass++
			}
		}
		return float64(pass) / n
	}
	small := passRate(TierSmall)
	frontier := passRate(TierFrontier)
	if frontier <= small {
		t.Errorf("frontier pass rate %.2f <= small %.2f", frontier, small)
	}
	if frontier < 0.3 {
		t.Errorf("frontier pass rate %.2f implausibly low", frontier)
	}
}

func TestFeedbackRepairImprovesFrontierMost(t *testing.T) {
	p := benchset.ByID("alu8")
	repaired := func(tier Tier) float64 {
		m := NewSimModel(tier, 99)
		improved := 0
		trials := 0
		for i := 0; i < 60; i++ {
			resp, _ := m.Generate(Request{
				Task:        VerilogGen{ProblemID: p.ID, Spec: p.Spec, Reference: p.Reference, Difficulty: p.Difficulty},
				Temperature: 1.0,
			})
			res, err := verilog.RunTestbench(resp.Text, p.Testbench(), "tb", verilog.SimOptions{})
			feedback := ""
			if err != nil {
				feedback = err.Error()
			} else if !res.Passed() {
				feedback = res.Output
				if res.RuntimeErr != nil {
					feedback += "\n" + res.RuntimeErr.Error()
				}
			} else {
				continue // already passing; no repair trial
			}
			trials++
			fixed, _ := m.Generate(Request{
				Task: VerilogGen{
					ProblemID: p.ID, Spec: p.Spec, Reference: p.Reference, Difficulty: p.Difficulty,
					PrevAttempt: resp.Text, Feedback: feedback,
				},
			})
			res2, err2 := verilog.RunTestbench(fixed.Text, p.Testbench(), "tb", verilog.SimOptions{})
			if err2 == nil && res2.Passed() {
				improved++
			}
		}
		if trials == 0 {
			return 1
		}
		return float64(improved) / float64(trials)
	}
	weak := repaired(TierSmall)
	strong := repaired(TierFrontier)
	if strong <= weak {
		t.Errorf("frontier repair rate %.2f <= small %.2f; feedback dynamics inverted", strong, weak)
	}
}

func TestTestbenchCoverageLoss(t *testing.T) {
	p := benchset.ByID("counter8")
	m := NewSimModel(TierSmall, 5)
	resp, err := m.Generate(Request{Task: TestbenchGen{
		ProblemID: p.ID, Spec: p.Spec,
		Header: p.TBHeader, VectorBlocks: p.TBBlocks, Footer: p.TBFooter,
	}})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	full := strings.Count(p.Testbench(), "$check_eq")
	got := strings.Count(resp.Text, "$check_eq")
	if got >= full {
		t.Errorf("small-tier testbench has %d checks, full has %d; no coverage loss", got, full)
	}
	if got == 0 {
		t.Error("generated testbench has no checks at all")
	}
}

func TestCRepairMallocWithTemplate(t *testing.T) {
	src := `
int sum_dyn(int n) {
    int *buf = (int*)malloc(n * sizeof(int));
    for (int i = 0; i < n; i++) buf[i] = i + 1;
    int total = 0;
    for (int i = 0; i < n; i++) total += buf[i];
    free(buf);
    return total;
}`
	m := NewSimModel(TierFrontier, 3)
	resp, err := m.Generate(Request{Task: CRepair{
		Source:      src,
		Diagnostics: []string{"sum_dyn:3: [dynamic-memory] malloc allocates unbounded memory"},
		Templates:   []string{"Replace heap allocation with a static array (static array bound=1024)."},
	}})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if strings.Contains(resp.Text, "malloc") || strings.Contains(resp.Text, "free(") {
		t.Errorf("repair kept dynamic memory:\n%s", resp.Text)
	}
	if !strings.Contains(resp.Text, "buf[1024]") {
		t.Errorf("repair did not use template bound:\n%s", resp.Text)
	}
	// The repaired kernel must still run and agree with the original.
	prog, err := chdl.ParseC(resp.Text)
	if err != nil {
		t.Fatalf("repaired source does not parse: %v\n%s", err, resp.Text)
	}
	in, _ := chdl.NewInterp(prog)
	got, err := in.CallInts("sum_dyn", 10)
	if err != nil {
		t.Fatalf("repaired run: %v", err)
	}
	if got != 55 {
		t.Errorf("repaired sum = %d, want 55", got)
	}
}

func TestCRepairRecursionWithTemplate(t *testing.T) {
	src := `
int triangle(int n) {
    if (n <= 0) return 0;
    return triangle(n - 1) + n;
}`
	m := NewSimModel(TierFrontier, 11)
	resp, err := m.Generate(Request{Task: CRepair{
		Source:      src,
		Diagnostics: []string{"triangle:2: [recursion] function is recursive"},
		Templates:   []string{"Convert accumulator recursion to an iterative rewrite of recursion."},
	}})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	prog, err := chdl.ParseC(resp.Text)
	if err != nil {
		t.Fatalf("repaired source does not parse: %v\n%s", err, resp.Text)
	}
	issues := chdl.Analyze(prog)
	for _, is := range issues {
		if is.Kind == chdl.IssueRecursion {
			t.Errorf("recursion not removed:\n%s", resp.Text)
		}
	}
	in, _ := chdl.NewInterp(prog)
	got, err := in.CallInts("triangle", 10)
	if err != nil {
		t.Fatalf("repaired run: %v", err)
	}
	if got != 55 {
		t.Errorf("triangle(10) = %d, want 55", got)
	}
}

func TestSLTGenParsesAndEmbedsGenome(t *testing.T) {
	m := NewSimModel(TierLarge, 21)
	resp, err := m.Generate(Request{
		Task:        SLTGen{UseSCoT: true},
		Temperature: 0.2, // low temperature keeps syntax intact
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if _, ok := parseGenome(resp.Text); !ok {
		t.Fatalf("generated snippet carries no genome header:\n%s", resp.Text)
	}
	if _, err := chdl.ParseC(resp.Text); err != nil {
		t.Fatalf("snippet does not parse: %v\n%s", err, resp.Text)
	}
}

func TestSLTGenMutatesExamples(t *testing.T) {
	m := NewSimModel(TierLarge, 33)
	base := emitSLT(sltGenome{outer: 5000, chains: 2, motifs: []int{motifALU, motifMul}, arrLog: 8, branch: 0, unroll: 2})
	differs := false
	for i := 0; i < 10 && !differs; i++ {
		resp, err := m.Generate(Request{
			Task:        SLTGen{Examples: []SLTExample{{Source: base, Score: 4.9}}, UseSCoT: true},
			Temperature: 0.1,
		})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		if resp.Text != base {
			differs = true
		}
	}
	if !differs {
		t.Error("low-temperature generation never perturbed the example")
	}
}

func TestSynthRewriteStrengthReduction(t *testing.T) {
	m := NewSimModel(TierFrontier, 8)
	rtl := "module m(input [7:0] a, output [7:0] y);\n  assign y = (a * 4);\nendmodule\n"
	resp, err := m.Generate(Request{Task: SynthRewrite{RTL: rtl}})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if !strings.Contains(resp.Text, "<< 2") {
		t.Errorf("frontier model missed strength reduction:\n%s", resp.Text)
	}
}

func TestPotentialErrorRecallScalesWithTier(t *testing.T) {
	issues := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	count := func(tier Tier) int {
		m := NewSimModel(tier, 17)
		total := 0
		for i := 0; i < 20; i++ {
			resp, _ := m.Generate(Request{Task: PotentialErrors{KnownIssues: issues}})
			if resp.Text != "" {
				total += len(strings.Split(resp.Text, "\n"))
			}
		}
		return total
	}
	if count(TierFrontier) <= count(TierSmall) {
		t.Error("potential-error recall does not scale with tier")
	}
}

func TestPromptBuilders(t *testing.T) {
	if !strings.Contains(BuildFeedbackPrompt("spec", "attempt", "errors"), "EDA tool output") {
		t.Error("feedback prompt malformed")
	}
	if !strings.Contains(BuildSCoTPrompt([]SLTExample{{Source: "x", Score: 5}}), "pseudocode") {
		t.Error("SCoT prompt malformed")
	}
	if !strings.Contains(BuildRepairPrompt("src", []string{"d"}, []string{"t"}), "correction templates") {
		t.Error("repair prompt malformed")
	}
}
