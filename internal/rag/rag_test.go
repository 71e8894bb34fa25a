package rag

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	toks := Tokenize("Replace heap-allocation: malloc(n * sizeof(int))!")
	want := []string{"replace", "heap", "allocation", "malloc", "n", "sizeof", "int"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
}

func TestRetrieveMatchesByTopic(t *testing.T) {
	lib := DefaultCorrectionLibrary()
	hits := lib.Retrieve("sum_dyn:3: [dynamic-memory] malloc allocates unbounded memory", 3)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].Template.Name != "malloc-to-static-array" {
		t.Errorf("top hit = %q, want malloc template; hits: %v", hits[0].Template.Name, names(hits))
	}
	hits = lib.Retrieve("[recursion] function is recursive; hardware needs an iterative form", 3)
	if len(hits) == 0 || hits[0].Template.Name != "recursion-to-iteration" {
		t.Errorf("recursion query top hit = %v", names(hits))
	}
}

func names(hits []Hit) []string {
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.Template.Name
	}
	return out
}

func TestRetrieveDeterministicOrder(t *testing.T) {
	lib := DefaultCorrectionLibrary()
	a := names(lib.Retrieve("unbounded loop while trip count", 5))
	b := names(lib.Retrieve("unbounded loop while trip count", 5))
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("retrieval nondeterministic: %v vs %v", a, b)
	}
}

func TestRetrieveEmptyQuery(t *testing.T) {
	lib := DefaultCorrectionLibrary()
	if hits := lib.Retrieve("", 3); len(hits) != 0 {
		t.Errorf("empty query returned %v", names(hits))
	}
}

func TestLevenshteinBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "", 3},
		{"", "xy", 2},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinPropertiesQuick(t *testing.T) {
	// Symmetry.
	sym := func(a, b string) bool {
		if len(a) > 64 {
			a = a[:64]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error(err)
	}
	// Identity and upper bound.
	bounds := func(a, b string) bool {
		if len(a) > 64 {
			a = a[:64]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		d := Levenshtein(a, b)
		maxLen := len(a)
		if len(b) > maxLen {
			maxLen = len(b)
		}
		if a == b {
			return d == 0
		}
		return d >= 1 && d <= maxLen
	}
	if err := quick.Check(bounds, nil); err != nil {
		t.Error(err)
	}
	// Triangle inequality on short strings.
	tri := func(a, b, c string) bool {
		if len(a) > 24 {
			a = a[:24]
		}
		if len(b) > 24 {
			b = b[:24]
		}
		if len(c) > 24 {
			c = c[:24]
		}
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizedLevenshtein(t *testing.T) {
	if d := NormalizedLevenshtein("aaaa", "aaaa"); d != 0 {
		t.Errorf("identical = %f", d)
	}
	if d := NormalizedLevenshtein("aaaa", "bbbb"); d != 1 {
		t.Errorf("disjoint = %f", d)
	}
	if d := NormalizedLevenshtein("", ""); d != 0 {
		t.Errorf("empty = %f", d)
	}
}

// randText draws n bytes from a four-letter alphabet, so that random
// texts share many characters and the distance matrix has real ties.
func randText(rng *rand.Rand, n int) string {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = "abcd"[rng.Intn(4)]
	}
	return string(buf)
}

// editText applies m random single-character insertions, deletions and
// substitutions, so the result is at most m edits from s.
func editText(rng *rand.Rand, s string, m int) string {
	b := []byte(s)
	for ; m > 0; m-- {
		pos := rng.Intn(len(b) + 1)
		switch op := rng.Intn(3); {
		case op == 0 || len(b) == 0:
			b = append(b[:pos], append([]byte{"abcd"[rng.Intn(4)]}, b[pos:]...)...)
		case op == 1 && pos < len(b):
			b = append(b[:pos], b[pos+1:]...)
		case pos < len(b):
			b[pos] = "abcd"[rng.Intn(4)]
		}
	}
	return string(b)
}

// TestWithinNormalizedMatchesExact checks the cut-off test against the
// exact distance on 200,000 random pairs. Each second text is the first
// one edited up to about twice the threshold distance, so roughly half of
// the pairs are near; a quarter use the production limit 0.05 and a
// quarter a limit m/n that the threshold distance reaches exactly.
func TestWithinNormalizedMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	const pairs = 200_000
	near := 0
	for i := 0; i < pairs; i++ {
		a := randText(rng, 1+rng.Intn(80))
		limit := 0.02 + 0.2*rng.Float64()
		if i%4 == 0 {
			limit = 0.05
		}
		b := editText(rng, a, rng.Intn(int(2*limit*float64(len(a)))+3))
		if i%4 == 1 {
			n := max(len(a), len(b))
			limit = float64(1+rng.Intn(n/4+1)) / float64(n)
		}
		want := NormalizedLevenshtein(a, b) < limit
		if got := WithinNormalized(a, b, limit); got != want {
			t.Fatalf("WithinNormalized(%q, %q, %v) = %v, exact distance %d says %v",
				a, b, limit, got, Levenshtein(a, b), want)
		}
		if want {
			near++
		}
	}
	t.Logf("%d of %d pairs near", near, pairs)
	if near < pairs/3 || near > 2*pairs/3 {
		t.Errorf("%d of %d pairs near; the corpus no longer straddles the threshold", near, pairs)
	}
}

func TestWithinNormalizedEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a96 := randText(rng, 96)
	a95 := a96[:95]
	// n = 100 and limit 0.05: limit·n = 5 is an integer, 5/100 < 0.05
	// fails, so the largest near distance is k = 4.
	cases := []struct {
		name  string
		a, b  string
		limit float64
		want  bool
	}{
		{"both empty", "", "", 0.05, true},
		{"both empty, zero limit", "", "", 0, false},
		{"one empty", "", "abc", 0.05, false},
		{"one empty, limit above 1", "abc", "", 1.5, true},
		{"equal", a96, a96, 0.05, true},
		{"equal, zero limit", a96, a96, 0, false},
		{"length gap k", a96, a96 + "abcd", 0.05, true},
		{"length gap k, swapped", a96 + "abcd", a96, 0.05, true},
		{"length gap k+1", a95, a95 + "abcdd", 0.05, false},
		{"k substitutions at integer limit·n", a96 + "abcd", editSubst(a96, 4) + "abcd", 0.05, true},
		{"k+1 substitutions at integer limit·n", a96 + "abcd", editSubst(a96, 5) + "abcd", 0.05, false},
		{"limit 1/20 at n = 20", a96[:20], editSubst(a96[:20], 1), 1.0 / 20, false},
		{"negative limit", "ab", "ab", -1, false},
	}
	for _, c := range cases {
		if exact := NormalizedLevenshtein(c.a, c.b) < c.limit; exact != c.want {
			t.Fatalf("%s: case expects %v but the exact test says %v", c.name, c.want, exact)
		}
		if got := WithinNormalized(c.a, c.b, c.limit); got != c.want {
			t.Errorf("%s: WithinNormalized = %v, want %v", c.name, got, c.want)
		}
	}
}

// editSubst changes the first m characters of s to ones that differ.
func editSubst(s string, m int) string {
	b := []byte(s)
	for i := 0; i < m; i++ {
		b[i] = 'x'
	}
	return string(b)
}

func TestLibrarySize(t *testing.T) {
	if n := DefaultCorrectionLibrary().Size(); n < 6 {
		t.Errorf("library has only %d templates", n)
	}
}
