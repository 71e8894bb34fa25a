// Package rag implements the retrieval substrate of the Fig. 2 repair
// framework: a TF-IDF cosine index over correction templates, ranked by
// score with ties broken on template name. It also holds the edit-distance
// test behind the SLT candidate-pool diversity pressure (§V).
package rag

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Template is one entry of the repair library: a named correction recipe
// whose body the LLM receives verbatim in its prompt.
type Template struct {
	Name string
	// Tags are the issue kinds this template addresses (e.g.
	// "dynamic-memory").
	Tags []string
	// Body is the correction recipe text shown to the model.
	Body string
}

// Library is an immutable searchable template collection; concurrent
// Retrieve calls are safe.
type Library struct {
	templates []Template
	idf       map[string]float64
	vecs      []map[string]float64
}

// NewLibrary indexes the given templates.
func NewLibrary(templates []Template) *Library {
	lib := &Library{templates: templates, idf: map[string]float64{}}
	docFreq := map[string]int{}
	tokenized := make([][]string, len(templates))
	for i, t := range templates {
		toks := Tokenize(t.Name + " " + strings.Join(t.Tags, " ") + " " + t.Body)
		tokenized[i] = toks
		seen := map[string]bool{}
		for _, tok := range toks {
			if !seen[tok] {
				seen[tok] = true
				docFreq[tok]++
			}
		}
	}
	n := float64(len(templates))
	for tok, df := range docFreq {
		lib.idf[tok] = math.Log(1 + n/float64(df))
	}
	lib.vecs = make([]map[string]float64, len(templates))
	for i, toks := range tokenized {
		lib.vecs[i] = lib.vectorize(toks)
	}
	return lib
}

// Size returns the number of indexed templates.
func (l *Library) Size() int { return len(l.templates) }

// Tokenize lowercases and splits on non-alphanumerics.
func Tokenize(s string) []string {
	var toks []string
	var cur strings.Builder
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
			continue
		}
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	if cur.Len() > 0 {
		toks = append(toks, cur.String())
	}
	return toks
}

func (l *Library) vectorize(toks []string) map[string]float64 {
	tf := map[string]float64{}
	for _, t := range toks {
		tf[t]++
	}
	vec := map[string]float64{}
	for t, f := range tf {
		idf, ok := l.idf[t]
		if !ok {
			idf = 1
		}
		vec[t] = (1 + math.Log(f)) * idf
	}
	return vec
}

func cosine(a, b map[string]float64) float64 {
	var dot, na, nb float64
	for t, va := range a {
		na += va * va
		if vb, ok := b[t]; ok {
			dot += va * vb
		}
	}
	for _, vb := range b {
		nb += vb * vb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Hit is one retrieval result.
type Hit struct {
	Template Template
	Score    float64
}

// Retrieve returns the top-k templates for a free-text query (typically
// the concatenated HLS diagnostics), best first, deterministically ordered.
func (l *Library) Retrieve(query string, k int) []Hit {
	qv := l.vectorize(Tokenize(query))
	hits := make([]Hit, 0, len(l.templates))
	for i, t := range l.templates {
		s := cosine(qv, l.vecs[i])
		if s > 0 {
			hits = append(hits, Hit{Template: t, Score: s})
		}
	}
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Template.Name < hits[j].Template.Name
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// Levenshtein returns the edit distance between two strings. It is the
// exact reference that WithinNormalized answers a threshold question about.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// NormalizedLevenshtein returns the edit distance scaled into [0, 1] by
// the longer string's length.
func NormalizedLevenshtein(a, b string) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	return float64(Levenshtein(a, b)) / float64(n)
}

// WithinNormalized reports whether NormalizedLevenshtein(a, b) < limit,
// without computing the full distance. With n the longer length, k is the
// largest distance d for which d/n < limit. Only a diagonal band of
// half-width k can hold a path of cost at most k, so the test fills that
// band alone and gives up at the first row whose minimum exceeds k
// (Ukkonen's cut-off, "Algorithms for approximate string matching",
// Information and Control, 1985).
func WithinNormalized(a, b string, limit float64) bool {
	n := max(len(a), len(b))
	if n == 0 {
		return 0 < limit
	}
	// k comes from the comparison the exact test makes, d/n < limit, so
	// the two agree at the boundary. A distance never exceeds n.
	nf := float64(n)
	k := -1
	if est := limit * nf; est >= nf {
		k = n
	} else if est >= 0 {
		k = int(est)
	}
	for k >= 0 && !(float64(k)/nf < limit) {
		k--
	}
	for k < n && float64(k+1)/nf < limit {
		k++
	}
	switch {
	case k < 0:
		return false
	case a == b:
		return true
	case len(a)-len(b) > k || len(b)-len(a) > k:
		return false
	}
	// prev[d] and cur[d] hold row i-1 and row i of the distance matrix at
	// column j = i-k+d; cells off the matrix or off the band read as k+1.
	w := 2*k + 1
	prev := make([]int, w)
	cur := make([]int, w)
	for d := range prev {
		if j := d - k; j >= 0 && j <= len(b) {
			prev[d] = j
		} else {
			prev[d] = k + 1
		}
	}
	for i := 1; i <= len(a); i++ {
		rowMin := k + 1
		for d := 0; d < w; d++ {
			j := i - k + d
			v := k + 1
			switch {
			case j < 0 || j > len(b):
			case j == 0:
				v = i
			default:
				v = prev[d]
				if a[i-1] != b[j-1] {
					v++
				}
				if d+1 < w && prev[d+1]+1 < v {
					v = prev[d+1] + 1
				}
				if d > 0 && cur[d-1]+1 < v {
					v = cur[d-1] + 1
				}
			}
			cur[d] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if rowMin > k {
			return false
		}
		prev, cur = cur, prev
	}
	return prev[len(b)-len(a)+k] <= k
}

func minInt(xs ...int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// DefaultCorrectionLibrary returns the repair templates the Fig. 2 flow
// retrieves from. Bodies carry the canonical parameters (bound=...) the
// simulated model extracts; a production deployment would carry worked
// code examples in the same slots. Every call returns the same shared
// Library, indexed on first use.
func DefaultCorrectionLibrary() *Library { return defaultLibrary() }

var defaultLibrary = sync.OnceValue(func() *Library {
	return NewLibrary([]Template{
		{
			Name: "malloc-to-static-array",
			Tags: []string{"dynamic-memory"},
			Body: "Replace heap allocation with a static array sized to the worst case.\n" +
				"Pattern: T *p = (T*)malloc(n * sizeof(T));  =>  T p[1024];  (static array bound=1024)\n" +
				"Remove matching free(p) calls; hardware has no heap.",
		},
		{
			Name: "while-to-bounded-for",
			Tags: []string{"unbounded-loop"},
			Body: "Rewrite while loops as bounded for loops so HLS can compute a trip count.\n" +
				"Pattern: while (cond) body  =>  for (int i = 0; i < 4096 && cond; i++) body (bounded loop bound=4096)",
		},
		{
			Name: "recursion-to-iteration",
			Tags: []string{"recursion"},
			Body: "Convert accumulator-style recursion into an iterative loop.\n" +
				"Pattern: if (n <= C) return K; return f(n-1) OP g(n);  =>  acc = K; for (i = C+1; i <= n; i++) acc = acc OP g(i); (iterative rewrite of recursion)",
		},
		{
			Name: "float-to-fixed",
			Tags: []string{"floating-point"},
			Body: "Replace float/double with integer fixed-point arithmetic; scale constants by " +
				"a power of two and shift after multiplication.",
		},
		{
			Name: "remove-kernel-io",
			Tags: []string{"io-in-kernel"},
			Body: "Delete printf/puts/putchar from the kernel; observability belongs in the " +
				"testbench, not the synthesized function.",
		},
		{
			Name: "pointer-param-to-array",
			Tags: []string{"pointer-parameter", "pointer-arithmetic"},
			Body: "Replace raw pointer parameters with sized array interfaces " +
				"(int *a  =>  int a[1024]) so the interface synthesizer can size the port. (static array bound=1024)",
		},
		{
			Name: "vla-to-static",
			Tags: []string{"variable-length-array"},
			Body: "Replace variable-length arrays with worst-case static arrays (static array bound=1024).",
		},
	})
})
