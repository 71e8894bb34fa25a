package synth

import (
	"testing"

	"llm4eda/internal/benchset"
)

func TestSynthesizeAdder(t *testing.T) {
	p := benchset.ByID("adder4")
	r, err := SynthesizeRTL(p.Reference, p.TopModule)
	if err != nil {
		t.Fatalf("SynthesizeRTL: %v", err)
	}
	if r.Gates <= 0 || r.DelayNS <= 0 || r.PowerMW <= 0 {
		t.Errorf("degenerate result: %+v", r)
	}
}

func TestMultiplierCostsMoreThanAdder(t *testing.T) {
	add := benchset.ByID("adder4")
	mul := benchset.ByID("mult4")
	ra, err := SynthesizeRTL(add.Reference, add.TopModule)
	if err != nil {
		t.Fatalf("adder: %v", err)
	}
	rm, err := SynthesizeRTL(mul.Reference, mul.TopModule)
	if err != nil {
		t.Fatalf("mult: %v", err)
	}
	if rm.Gates <= ra.Gates {
		t.Errorf("multiplier gates %.0f <= adder %.0f", rm.Gates, ra.Gates)
	}
	if rm.DelayNS <= ra.DelayNS {
		t.Errorf("multiplier delay %.2f <= adder %.2f", rm.DelayNS, ra.DelayNS)
	}
}

func TestSequentialCountsRegs(t *testing.T) {
	p := benchset.ByID("counter8")
	r, err := SynthesizeRTL(p.Reference, p.TopModule)
	if err != nil {
		t.Fatalf("SynthesizeRTL: %v", err)
	}
	if r.Regs < 8 {
		t.Errorf("counter8 has %d reg bits, want >= 8", r.Regs)
	}
}

func TestStrengthReductionVisible(t *testing.T) {
	// The multiplier-by-constant version must cost more than the shift
	// version: this is the headroom the LLM rewrite (LLSM experiment)
	// exploits.
	mulSrc := `module m(input [7:0] a, output [7:0] y);
  assign y = (a * 4);
endmodule`
	shiftSrc := `module m(input [7:0] a, output [7:0] y);
  assign y = (a << 2);
endmodule`
	rm, err := SynthesizeRTL(mulSrc, "m")
	if err != nil {
		t.Fatalf("mul: %v", err)
	}
	rs, err := SynthesizeRTL(shiftSrc, "m")
	if err != nil {
		t.Fatalf("shift: %v", err)
	}
	if rm.Gates <= rs.Gates {
		t.Errorf("mul-by-const gates %.0f <= shift gates %.0f", rm.Gates, rs.Gates)
	}
}

func TestHierarchyIncluded(t *testing.T) {
	src := `
module leaf(input [7:0] a, output [7:0] y);
  assign y = a * 3;
endmodule
module top(input [7:0] a, output [7:0] y);
  wire [7:0] t;
  leaf l1(.a(a), .y(t));
  leaf l2(.a(t), .y(y));
endmodule`
	rt, err := SynthesizeRTL(src, "top")
	if err != nil {
		t.Fatalf("top: %v", err)
	}
	rl, err := SynthesizeRTL(src, "leaf")
	if err != nil {
		t.Fatalf("leaf: %v", err)
	}
	if rt.Gates < 2*rl.Gates*0.9 {
		t.Errorf("hierarchy not accumulated: top %.0f vs leaf %.0f", rt.Gates, rl.Gates)
	}
}

func TestUnknownModule(t *testing.T) {
	if _, err := SynthesizeRTL("module m(); endmodule", "nope"); err == nil {
		t.Error("expected unknown-module error")
	}
	if _, err := SynthesizeRTL("not verilog", "m"); err == nil {
		t.Error("expected parse error")
	}
}

func TestAllBenchmarkReferencesSynthesize(t *testing.T) {
	for _, p := range benchset.Suite() {
		p := p
		t.Run(p.ID, func(t *testing.T) {
			r, err := SynthesizeRTL(p.Reference, p.TopModule)
			if err != nil {
				t.Fatalf("SynthesizeRTL: %v", err)
			}
			if r.Gates <= 0 {
				t.Errorf("zero gates for %s", p.ID)
			}
		})
	}
}
