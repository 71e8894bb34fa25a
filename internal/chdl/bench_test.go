package chdl_test

import (
	"testing"

	"llm4eda/internal/chdl"
	"llm4eda/internal/repair"
)

// BenchmarkCInterp runs every repair-suite kernel on each of its vectors,
// one fresh interpreter per call as the repair flow's reference run does.
// Programs are parsed once, outside the timed loop: the cost measured is
// interpretation alone.
func BenchmarkCInterp(b *testing.B) {
	type kernel struct {
		prog    *chdl.Program
		name    string
		vectors [][]int64
	}
	var ks []kernel
	for _, k := range repair.BenchKernels() {
		prog, err := chdl.ParseC(k.Source)
		if err != nil {
			b.Fatal(err)
		}
		ks = append(ks, kernel{prog, k.Kernel, k.Vectors})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			for _, vec := range k.vectors {
				in, err := chdl.NewInterp(k.prog, chdl.InterpOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := in.CallInts(k.name, vec...); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
