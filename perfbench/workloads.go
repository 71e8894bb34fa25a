package main

import (
	"llm4eda/eda"
	"llm4eda/internal/repair"
)

// The three workloads. Every spec seed is derived from the workload seed
// given on the command line, so one seed always produces the same inputs.
const (
	serveMixed = "serve-mixed"
	serveCold  = "serve-cold"
	sltBatch   = "slt-batch"
)

var workloads = []string{serveMixed, serveCold, sltBatch}

// mix64 is the splitmix64 finalizer: a cheap, well-spread hash used to
// derive every per-job seed and sample choice from the workload seed.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Seed streams keep the hot, cold, warm-up and sampling seeds apart.
const (
	streamHot uint64 = iota + 1
	streamCold
	streamWarm
	streamSample
	streamSLT
)

// deriveSeed returns the spec seed for item i of a stream. Seeds stay in
// [1, 2^40] so that every framework's seed arithmetic stays positive.
func deriveSeed(seed, stream uint64, i int) uint64 {
	return mix64(mix64(seed^stream<<56)+uint64(i))&(1<<40-1) + 1
}

// mixedProblems are the serve-mixed problems (the loadgen quick suite).
var mixedProblems = []string{"mux4", "adder4", "counter8"}

// mixedSpec shapes job i of serve-mixed: every third job repeats one of
// three hot specs, the rest are unique vrank k=2 runs. stream selects the
// cold-seed stream, so warm-up traffic never repeats a timed cold spec.
// hot is the hot-spec index, or -1 for a cold job.
func mixedSpec(seed, stream uint64, i int) (spec eda.Spec, hot int) {
	if i%3 == 0 {
		h := (i / 3) % len(mixedProblems)
		return eda.Spec{Framework: "vrank", Problem: mixedProblems[h],
			Run: eda.RunSpec{Seed: deriveSeed(seed, streamHot, h)}, Params: map[string]float64{"k": 2}}, h
	}
	s := deriveSeed(seed, stream, i)
	return eda.Spec{Framework: "vrank", Problem: mixedProblems[s%uint64(len(mixedProblems))],
		Run: eda.RunSpec{Seed: s}, Params: map[string]float64{"k": 2}}, -1
}

// coldFrameworks is the serve-cold rotation.
var coldFrameworks = []string{"vrank", "autochip", "crosscheck", "xdebug", "lint", "agent", "repair", "hlstest"}

// coldProblems are the medium problems serve-cold draws from;
// combProblems is the subset with a port list and a C model, which the
// cross-level frameworks need.
var (
	coldProblems = []string{"alu8", "barrel8", "satadd8", "popcount8", "enc8to3", "counter8", "det101"}
	combProblems = []string{"alu8", "barrel8", "satadd8", "popcount8", "enc8to3"}
)

// coldSpec shapes job i of serve-cold: the framework rotates with i, the
// problem (or repair kernel) and the seed come from the seed stream, so
// every spec is unique and the report store never answers one.
func coldSpec(seed, stream uint64, i int) eda.Spec {
	s := deriveSeed(seed, stream, i)
	fw := coldFrameworks[i%len(coldFrameworks)]
	spec := eda.Spec{Framework: fw, Run: eda.RunSpec{Seed: s}}
	pick := mix64(s)
	switch fw {
	case "crosscheck", "xdebug":
		spec.Problem = combProblems[pick%uint64(len(combProblems))]
	case "repair":
		ks := repair.BenchKernels()
		k := ks[pick%uint64(len(ks))]
		spec.Source, spec.Kernel, spec.Vectors = k.Source, k.Kernel, k.Vectors
	case "hlstest":
		// The default kernel campaign; only the seed varies.
	default:
		spec.Problem = coldProblems[pick%uint64(len(coldProblems))]
	}
	if fw == "vrank" {
		spec.Params = map[string]float64{"k": 5}
	}
	return spec
}

// sltSpecs is the slt-batch spec list: two LLM power loops (40 evals)
// and two genetic-programming baselines (60 evals, 24 of them the initial
// population), interleaved, each with its own seed. Smoke runs use 5 and
// 30 evals.
func sltSpecs(seed uint64, smoke bool) []eda.Spec {
	sltEvals, gpEvals := 40.0, 60.0
	if smoke {
		sltEvals, gpEvals = 5, 30
	}
	var out []eda.Spec
	for i := 0; i < 2; i++ {
		out = append(out,
			eda.Spec{Framework: "slt", Run: eda.RunSpec{Seed: deriveSeed(seed, streamSLT, 2*i)},
				Params: map[string]float64{"evals": sltEvals}},
			eda.Spec{Framework: "gp", Run: eda.RunSpec{Seed: deriveSeed(seed, streamSLT, 2*i+1)},
				Params: map[string]float64{"evals": gpEvals}})
	}
	return out
}
