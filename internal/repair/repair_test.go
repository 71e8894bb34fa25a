package repair

import (
	"context"
	"strings"
	"testing"

	"llm4eda/internal/chdl"
	"llm4eda/internal/hls"
	"llm4eda/internal/llm"
	"llm4eda/internal/rag"
)

func frontierFramework(seed uint64) *Framework {
	return New(Config{
		Model:   llm.NewSimModel(llm.TierFrontier, seed),
		Library: rag.DefaultCorrectionLibrary(),
	})
}

func TestSuiteKernelsAreBrokenButRunnable(t *testing.T) {
	for _, k := range BenchKernels() {
		k := k
		t.Run(k.ID, func(t *testing.T) {
			prog, err := chdl.ParseC(k.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			// Runs on "CPU".
			in, _ := chdl.NewInterp(prog)
			if _, err := in.CallInts(k.Kernel, k.Vectors[0]...); err != nil {
				t.Fatalf("original does not run: %v", err)
			}
			// Rejected by HLS.
			if _, err := hls.Synthesize(prog, k.Kernel, hls.Options{}); err == nil {
				t.Fatalf("kernel %s unexpectedly synthesizes before repair", k.ID)
			}
		})
	}
}

func TestRepairMallocSum(t *testing.T) {
	k := BenchKernels()[0]
	out, err := frontierFramework(1).Repair(context.Background(), k.Source, k.Kernel, k.Vectors)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !out.Success {
		t.Fatalf("repair failed: %+v", out.Stages)
	}
	if strings.Contains(out.RepairedSource, "malloc") {
		t.Errorf("repaired source still has malloc:\n%s", out.RepairedSource)
	}
	if out.Mismatches != 0 {
		t.Errorf("equivalence mismatches: %d", out.Mismatches)
	}
}

func TestRepairFullSuiteWithRAG(t *testing.T) {
	fw := frontierFramework(7)
	succ := 0
	for _, k := range BenchKernels() {
		out, err := fw.Repair(context.Background(), k.Source, k.Kernel, k.Vectors)
		if err != nil {
			t.Errorf("%s: %v", k.ID, err)
			continue
		}
		if out.Success {
			succ++
		} else {
			t.Logf("%s failed: %+v", k.ID, out.Stages)
		}
	}
	if succ < len(BenchKernels())-1 {
		t.Errorf("frontier+RAG repaired only %d/%d kernels", succ, len(BenchKernels()))
	}
}

func TestRAGAblationHelpsWeakModels(t *testing.T) {
	// Over the suite and several seeds, RAG must repair at least as many
	// kernels as the no-RAG arm for a medium model (usually strictly more:
	// template bounds prevent undersized static arrays).
	successes := func(withRAG bool) int {
		total := 0
		for seed := uint64(0); seed < 6; seed++ {
			cfg := Config{Model: llm.NewSimModel(llm.TierMedium, seed)}
			if withRAG {
				cfg.Library = rag.DefaultCorrectionLibrary()
			}
			fw := New(cfg)
			for _, k := range BenchKernels() {
				out, err := fw.Repair(context.Background(), k.Source, k.Kernel, k.Vectors)
				if err == nil && out.Success {
					total++
				}
			}
		}
		return total
	}
	with := successes(true)
	without := successes(false)
	if with < without {
		t.Errorf("RAG arm repaired %d, no-RAG %d; retrieval should not hurt", with, without)
	}
	if with == 0 {
		t.Error("RAG arm repaired nothing")
	}
}

func TestStageLogsComplete(t *testing.T) {
	k := BenchKernels()[1] // while_collatz
	out, err := frontierFramework(3).Repair(context.Background(), k.Source, k.Kernel, k.Vectors)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	var stages []string
	for _, s := range out.Stages {
		stages = append(stages, s.Stage)
	}
	joined := strings.Join(stages, ",")
	for _, want := range []string{"preprocessing", "repair", "equivalence"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing stage %q in %v", want, stages)
		}
	}
	if len(out.ActualErrors) == 0 {
		t.Error("no actual errors recorded for a broken kernel")
	}
}

func TestPPAOptimizationRuns(t *testing.T) {
	k := BenchKernels()[0]
	out, err := frontierFramework(5).Repair(context.Background(), k.Source, k.Kernel, k.Vectors)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !out.Success {
		t.Skip("repair itself failed for this seed")
	}
	if out.PPABefore.LatencyCyc == 0 {
		t.Error("PPABefore not recorded")
	}
	if out.Optimized && out.PPAAfter.LatencyCyc >= out.PPABefore.LatencyCyc {
		t.Errorf("optimization claimed but latency %d >= %d",
			out.PPAAfter.LatencyCyc, out.PPABefore.LatencyCyc)
	}
}
