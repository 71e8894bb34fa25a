package vrank

import (
	"context"
	"strings"
	"testing"

	"llm4eda/internal/benchset"
)

// wideProblem models the wide-output blind spot: the bench captures the
// DUT's 128-bit result into a two-word memory and checks only the low
// half, so nothing about the high half ever reaches $display output.
func wideProblem() *benchset.Problem {
	return &benchset.Problem{
		ID:        "widecap",
		Spec:      "128-bit constant source, split across lo/hi 64-bit outputs",
		TopModule: "wsrc",
		TBHeader: `
module tb;
  wire [63:0] lo, hi;
  wsrc dut(.lo(lo), .hi(hi));
  reg [63:0] cap [0:1];
`,
		TBBlocks: []string{`
  initial begin
    #1;
    cap[0] = lo;
    cap[1] = hi;
    $check_eq(lo, 64'h0123456789abcdef);
`},
		TBFooter: `
    $finish;
  end
endmodule
`,
	}
}

func wideCandidate(hiNibble string) string {
	return `
module wsrc(output [63:0] lo, output [63:0] hi);
  assign lo = 64'h0123456789abcdef;
  assign hi = 64'h` + hiNibble + `000000000000000;
endmodule`
}

// TestWideOutputsSplitClusters is the clustering-level regression for the
// Final-signals fidelity fix: two candidates that differ only in the
// upper word of a 128-bit capture — bits that never appear in $display
// output — must produce distinct signatures, not one merged cluster.
func TestWideOutputsSplitClusters(t *testing.T) {
	p := wideProblem()
	candA := wideCandidate("1") // hi = 64'h1000...
	candB := wideCandidate("9") // hi = 64'h9000...

	sigs, err := Signatures(context.Background(), p, []string{candA, candB}, 1)
	if err != nil {
		t.Fatalf("Signatures: %v", err)
	}
	if sigs[0] == "" || sigs[1] == "" {
		t.Fatalf("candidate failed to simulate: %q %q", sigs[0], sigs[1])
	}
	// The printed portion is identical — only the invisible wide capture
	// differs. Without FinalMem in the fingerprint these cluster together.
	outA := sigs[0][:strings.Index(sigs[0]+"\nFINAL:", "\nFINAL:")]
	outB := sigs[1][:strings.Index(sigs[1]+"\nFINAL:", "\nFINAL:")]
	if outA != outB {
		t.Fatalf("test premise broken: display outputs differ:\n%q\n%q", outA, outB)
	}
	if sigs[0] == sigs[1] {
		t.Fatalf("candidates differing only in wide output cluster together:\n%s", sigs[0])
	}
	if !strings.Contains(sigs[0], "tb.cap=") {
		t.Errorf("fingerprint missing the wide capture signal:\n%s", sigs[0])
	}
}

// TestFingerprintExcludesDUTInternals guards the other direction: two
// behaviorally identical candidates whose *internal* wiring differs (the
// normal variance across LLM samples) must still share one signature.
func TestFingerprintExcludesDUTInternals(t *testing.T) {
	p := wideProblem()
	direct := wideCandidate("1")
	internal := `
module wsrc(output [63:0] lo, output [63:0] hi);
  wire [63:0] stage_a = 64'h0123456789abcdef;
  wire [63:0] stage_b = 64'h1000000000000000;
  assign lo = stage_a;
  assign hi = stage_b;
endmodule`

	sigs, err := Signatures(context.Background(), p, []string{direct, internal}, 1)
	if err != nil {
		t.Fatalf("Signatures: %v", err)
	}
	if sigs[0] != sigs[1] {
		t.Fatalf("internal naming split a behaviorally identical cluster:\n%q\nvs\n%q", sigs[0], sigs[1])
	}
}
