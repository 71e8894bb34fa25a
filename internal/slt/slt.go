// Package slt implements the paper's §V case study: LLM-driven generation
// of System-Level Test programs that maximize the power consumption of a
// superscalar out-of-order RISC-V processor. The loop follows Fig. 5
// exactly: a candidate pool seeded with handwritten examples, prompt
// construction from n randomly picked pool examples (SCoT), score
// evaluation on the processor model (zero for snippets that do not compile
// or trap), pool insertion under a Levenshtein diversity pressure, and a
// simulated-annealing-style temperature adaptation driven by the score and
// the new snippet's distance to the pool.
package slt

import (
	"context"
	"fmt"

	"llm4eda/internal/boom"
	"llm4eda/internal/chdl"
	"llm4eda/internal/core"
	"llm4eda/internal/isa"
	"llm4eda/internal/llm"
	"llm4eda/internal/rag"
	"llm4eda/internal/simfarm"
)

// Config parameterizes one optimization run.
type Config struct {
	// RunSpec carries the shared execution envelope; Seed fixes the pool
	// sampling stream and Workers bounds the seed-scoring batch.
	core.RunSpec
	Model llm.Model
	// UseSCoT selects structured chain-of-thought prompting.
	UseSCoT bool
	// AdaptiveTemp enables the temperature-adaptation mechanism; when
	// false, FixedTemp is used throughout (ablation E8).
	AdaptiveTemp bool
	FixedTemp    float64
	// DiversityPressure enables the Levenshtein pool filter (ablation E8).
	DiversityPressure bool
	// PoolSize bounds the candidate pool (default 12).
	PoolSize int
	// ExamplesPerPrompt is n in the paper (default 3).
	ExamplesPerPrompt int
	// MaxEvals is the snippet budget (the wall-clock stand-in; the paper's
	// 24 h run produced 2021 snippets).
	MaxEvals int
	// Boom configures the processor model.
	Boom boom.RunOptions
}

func (c Config) withDefaults() Config {
	if c.PoolSize == 0 {
		c.PoolSize = 12
	}
	if c.ExamplesPerPrompt == 0 {
		c.ExamplesPerPrompt = 3
	}
	if c.MaxEvals == 0 {
		c.MaxEvals = 200
	}
	if c.FixedTemp == 0 {
		c.FixedTemp = 0.7
	}
	return c
}

// Snippet is one scored candidate.
type Snippet struct {
	Source string
	Score  float64 // watts; 0 for invalid snippets
}

// Result reports a full run.
type Result struct {
	Best Snippet
	Pool []Snippet
	// Trajectory records best-so-far watts after each evaluation.
	Trajectory []float64
	Evals      int
	// CompileFails counts zero-score snippets (compile error or trap).
	CompileFails int
	// FinalTemp is the temperature at loop exit.
	FinalTemp float64
}

// Score compiles and runs one C snippet on the processor model, returning
// watts. Snippets that do not compile or trap ("unwanted exceptions" in
// the paper) score zero; a snippet still running when the measurement
// window (MaxInsts) closes is measured over the window, exactly like a
// fixed-duration power measurement on the FPGA rig.
func Score(source string, opts boom.RunOptions) (float64, *boom.Result) {
	prog, err := chdl.ParseC(source)
	if err != nil {
		return 0, nil
	}
	compiled, err := isa.Compile(prog, "main")
	if err != nil {
		return 0, nil
	}
	res := boom.Run(compiled, opts)
	if res.Trap != nil {
		return 0, res
	}
	return res.PowerW, res
}

// ScoreBatch evaluates a candidate batch on the processor model through
// the simfarm worker pool (workers <= 0 selects GOMAXPROCS). Each snippet
// compiles and runs independently, so the returned scores are in input
// order and identical to a serial Score loop.
func ScoreBatch(sources []string, opts boom.RunOptions, workers int) []float64 {
	scores, _ := ScoreBatchCtx(context.Background(), sources, opts, workers)
	return scores
}

// ScoreBatchCtx is ScoreBatch under a context: cancellation stops new
// snippet evaluations within one in-flight run and returns ctx.Err();
// unevaluated slots stay zero.
func ScoreBatchCtx(ctx context.Context, sources []string, opts boom.RunOptions, workers int) ([]float64, error) {
	scores := make([]float64, len(sources))
	err := simfarm.MapCtx(ctx, len(sources), workers, func(i int) {
		scores[i], _ = Score(sources[i], opts)
	})
	return scores, err
}

// SeedExamples returns the handwritten starter programs the paper's loop
// begins from.
func SeedExamples() []string {
	return []string{
		`// genome o=4000 c=1 m=0 a=6 b=0 u=1
int arr[64];
int main() {
    for (int i = 0; i < 64; i++) arr[i] = i * 2654435761;
    int acc0 = 1;
    int x = 123456789;
    for (int r = 0; r < 4000; r++) {
        acc0 = ((acc0 + r) ^ (acc0 << 3)) - (r | 1);
    }
    int out = x;
    out += acc0;
    return out;
}
`,
		`// genome o=5000 c=2 m=1,2 a=8 b=1 u=1
int arr[256];
int main() {
    for (int i = 0; i < 256; i++) arr[i] = i * 2654435761;
    int acc0 = 1;
    int acc1 = 2;
    int x = 123456789;
    for (int r = 0; r < 5000; r++) {
        acc0 = acc0 * 2654435761 + r;
        acc1 += arr[(r + 17) & 255];
        arr[(r + 31) & 255] = acc1;
    }
    int out = x;
    out += acc0;
    out += acc1;
    return out;
}
`,
		`// genome o=3000 c=1 m=3,5 a=6 b=2 u=1
int arr[64];
int main() {
    for (int i = 0; i < 64; i++) arr[i] = i * 2654435761;
    int acc0 = 1;
    int x = 123456789;
    for (int r = 0; r < 3000; r++) {
        acc0 = acc0 / ((r & 7) + 3) + 1000;
        x = x * 1103515245 + 12345;
        if ((x >> 16) & 1) { acc0 += 13; } else { acc0 -= 7; }
    }
    int out = x;
    out += acc0;
    return out;
}
`,
		`// genome o=6000 c=2 m=4,0 a=10 b=0 u=2
int arr[1024];
int main() {
    for (int i = 0; i < 1024; i++) arr[i] = i * 2654435761;
    int acc0 = 1;
    int acc1 = 2;
    int x = 123456789;
    for (int r = 0; r < 6000; r++) {
        acc0 ^= acc0 >> 5;
        acc0 += acc0 << 2;
        acc1 = ((acc1 + r) ^ (acc1 << 3)) - (r | 1);
        acc0 = ((acc0 + r) ^ (acc0 << 3)) - (r | 1);
        acc1 ^= acc1 >> 5;
        acc1 += acc1 << 2;
    }
    int out = x;
    out += acc0;
    out += acc1;
    return out;
}
`,
	}
}

// Run executes the optimization loop. ctx is checked between snippet
// evaluations (the loop's natural round boundary); each scored snippet
// and model call streams to the context's event sink.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Model == nil {
		return nil, fmt.Errorf("slt: Config.Model is required")
	}
	sink := core.SinkOf(ctx)
	r := newRNG(cfg.Seed)
	res := &Result{}

	// Seed the pool with the handwritten examples, scored as one batch on
	// the processor model; the fold below keeps the serial ordering.
	seeds := SeedExamples()
	seedScores, err := ScoreBatchCtx(ctx, seeds, cfg.Boom, cfg.Workers)
	if err != nil {
		return res, err // cancelled while scoring the seed pool
	}
	for i, score := range seedScores {
		res.Pool = append(res.Pool, Snippet{Source: seeds[i], Score: score})
		if score > res.Best.Score {
			res.Best = Snippet{Source: seeds[i], Score: score}
		}
	}

	temp := cfg.FixedTemp
	const tempMin, tempMax = 0.1, 1.3

	for eval := 0; eval < cfg.MaxEvals; eval++ {
		if err := ctx.Err(); err != nil {
			res.FinalTemp = temp
			return res, err
		}
		// Prompt generation: n randomly picked examples from the pool.
		n := cfg.ExamplesPerPrompt
		if n > len(res.Pool) {
			n = len(res.Pool)
		}
		perm := r.perm(len(res.Pool))
		examples := make([]llm.SLTExample, 0, n)
		for _, idx := range perm[:n] {
			examples = append(examples, llm.SLTExample{Source: res.Pool[idx].Source, Score: res.Pool[idx].Score})
		}

		resp, err := cfg.Model.Generate(llm.Request{
			System:      llm.SystemSLT,
			Prompt:      llm.BuildSCoTPrompt(examples),
			Task:        llm.SLTGen{Examples: examples, UseSCoT: cfg.UseSCoT},
			Temperature: temp,
		})
		if err != nil {
			return nil, fmt.Errorf("slt: generation failed: %w", err)
		}
		sink.Emit(core.Event{
			Kind: core.EventLLMCall, Framework: "slt", Phase: "snippet generation",
			Seq: eval + 1, Total: cfg.MaxEvals, TokensIn: resp.TokensIn, TokensOut: resp.TokensOut,
		})
		score, _ := Score(resp.Text, cfg.Boom)
		res.Evals++
		if score == 0 {
			res.CompileFails++
		}
		if score > res.Best.Score {
			res.Best = Snippet{Source: resp.Text, Score: score}
		}
		res.Trajectory = append(res.Trajectory, res.Best.Score)
		sink.Emit(core.Event{
			Kind: core.EventCandidate, Framework: "slt", Phase: "power scoring",
			Seq: eval + 1, Total: cfg.MaxEvals, Score: score, OK: score > 0,
			Detail: fmt.Sprintf("best so far %.3f W", res.Best.Score),
		})

		// Pool update with diversity pressure: the snippet is a near
		// duplicate when it is within 5% normalized edit distance of some
		// pool entry.
		nearDup := false
		for _, sn := range res.Pool {
			if rag.WithinNormalized(resp.Text, sn.Source, 0.05) {
				nearDup = true
				break
			}
		}
		accept := score > 0
		if cfg.DiversityPressure && nearDup && score <= poolMin(res.Pool) {
			accept = false // near-duplicate that does not improve anything
		}
		if accept {
			res.Pool = insertSnippet(res.Pool, Snippet{Source: resp.Text, Score: score}, cfg.PoolSize)
		}

		// Temperature adaptation (simulated-annealing flavored): good
		// scores cool the search toward exploitation; near-duplicates
		// heat it toward exploration.
		if cfg.AdaptiveTemp {
			mean := poolMean(res.Pool)
			switch {
			case score > mean && score > 0:
				temp -= 0.08
			case score == 0:
				temp += 0.05
			default:
				temp += 0.02
			}
			if nearDup {
				temp += 0.12 // pool converging: force diversity
			}
			if temp < tempMin {
				temp = tempMin
			}
			if temp > tempMax {
				temp = tempMax
			}
		}
	}
	res.FinalTemp = temp
	return res, nil
}

func poolMean(pool []Snippet) float64 {
	if len(pool) == 0 {
		return 0
	}
	var s float64
	for _, sn := range pool {
		s += sn.Score
	}
	return s / float64(len(pool))
}

func poolMin(pool []Snippet) float64 {
	if len(pool) == 0 {
		return 0
	}
	m := pool[0].Score
	for _, sn := range pool[1:] {
		if sn.Score < m {
			m = sn.Score
		}
	}
	return m
}

// insertSnippet keeps the pool sorted by score, capped at size.
func insertSnippet(pool []Snippet, sn Snippet, size int) []Snippet {
	pool = append(pool, sn)
	// Insertion sort step (pool is small).
	for i := len(pool) - 1; i > 0 && pool[i].Score > pool[i-1].Score; i-- {
		pool[i], pool[i-1] = pool[i-1], pool[i]
	}
	if len(pool) > size {
		pool = pool[:size]
	}
	return pool
}

type rngT struct{ state uint64 }

func newRNG(seed uint64) *rngT {
	if seed == 0 {
		seed = 0xA5A5A5A55A5A5A5A
	}
	return &rngT{state: seed}
}

func (r *rngT) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *rngT) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// perm returns a deterministic pseudo-random permutation of [0, n).
func (r *rngT) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
