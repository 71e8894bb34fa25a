package slt

import (
	"math"
	"strings"
	"testing"

	"llm4eda/internal/boom"
)

// FuzzScore runs arbitrary C text through Score: nothing panics, the
// score is finite and non-negative, and a returned Result keeps its
// counters consistent. The seeds are the handwritten starter programs,
// the broken, trapping and non-halting snippets of
// TestScoreZeroForBrokenSnippet, and input nested past the parser's
// depth cap.
func FuzzScore(f *testing.F) {
	for _, src := range SeedExamples() {
		f.Add(src)
	}
	f.Add("int main() { return")
	f.Add("int tiny[1];\nint main() { return tiny[1000000000]; }")
	f.Add("int main() { int x = 0; while (1) { x++; } return x; }")
	f.Add("int main() { return " + strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000) + "; }")
	opts := boom.RunOptions{MaxInsts: 20_000}
	f.Fuzz(func(t *testing.T, src string) {
		score, res := Score(src, opts)
		if math.IsNaN(score) || math.IsInf(score, 0) || score < 0 {
			t.Fatalf("score %v, want finite and >= 0", score)
		}
		if res == nil {
			return
		}
		if res.Mispredicts > res.Branches {
			t.Errorf("%d mispredicts > %d branches", res.Mispredicts, res.Branches)
		}
		if res.CacheMisses > res.CacheAccess {
			t.Errorf("%d cache misses > %d accesses", res.CacheMisses, res.CacheAccess)
		}
	})
}
