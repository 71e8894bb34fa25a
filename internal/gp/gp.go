// Package gp implements the genetic-programming baseline the paper's §V
// compares the LLM loop against ([35]): tournament selection with
// crossover and mutation over loop-body statement genomes, scored on the
// same processor power model. Unlike the LLM generator — which stays
// inside an idiomatic code space — GP mutates raw statement soup: it can
// pack arbitrarily many independent accumulator chains and op mixes into
// the loop body, which is why, given a longer budget, it keeps improving
// after the LLM loop saturates ("the GP snippet has no real-world
// equivalent").
package gp

import (
	"context"
	"fmt"
	"strings"

	"llm4eda/internal/boom"
	"llm4eda/internal/chdl"
	"llm4eda/internal/core"
	"llm4eda/internal/isa"
	"llm4eda/internal/simfarm"
)

// geneKind enumerates loop-body statement genes.
type geneKind int

const (
	geneALU geneKind = iota + 1
	geneMul
	geneLoad
	geneStore
	geneDiv
	geneXorShift
	geneBranch
	geneKindCount = geneBranch
)

// gene is one loop-body statement.
type gene struct {
	kind geneKind
	dst  int // accumulator index
	src  int // second accumulator index
	op   int // operator selector within the kind
	k    int64
}

// genome is a full individual.
type genome struct {
	outer  int
	accs   int // accumulator count (up to maxAccs: wider than the LLM space)
	arrLog int
	body   []gene
}

const (
	maxAccs    = 8
	maxBodyLen = 24
	minOuter   = 2000
	maxOuter   = 20000
)

// render emits the genome as a C program.
func (g genome) render() string {
	var b strings.Builder
	n := 1 << uint(g.arrLog)
	mask := n - 1
	fmt.Fprintf(&b, "int arr[%d];\n", n)
	b.WriteString("int main() {\n")
	fmt.Fprintf(&b, "    for (int i = 0; i < %d; i++) arr[i] = i * 2654435761;\n", n)
	for a := 0; a < g.accs; a++ {
		fmt.Fprintf(&b, "    int a%d = %d;\n", a, a+1)
	}
	b.WriteString("    int x = 123456789;\n")
	fmt.Fprintf(&b, "    for (int r = 0; r < %d; r++) {\n", g.outer)
	for _, gn := range g.body {
		d := gn.dst % g.accs
		s := gn.src % g.accs
		switch gn.kind {
		case geneALU:
			ops := []string{"+", "-", "^", "|", "&"}
			fmt.Fprintf(&b, "        a%d = (a%d %s (r + %d)) + a%d;\n", d, d, ops[gn.op%len(ops)], gn.k&1023, s)
		case geneMul:
			fmt.Fprintf(&b, "        a%d = a%d * %d + r;\n", d, s, 2654435761&^1|int64(gn.op)<<1|1)
		case geneLoad:
			fmt.Fprintf(&b, "        a%d += arr[(r + %d) & %d];\n", d, gn.k&8191, mask)
		case geneStore:
			fmt.Fprintf(&b, "        arr[(r + %d) & %d] = a%d;\n", gn.k&8191, mask, s)
		case geneDiv:
			fmt.Fprintf(&b, "        a%d = a%d / ((r & 7) + %d) + 977;\n", d, d, 2+gn.k&7)
		case geneXorShift:
			fmt.Fprintf(&b, "        a%d ^= a%d >> %d;\n", d, s, 1+gn.k&15)
		case geneBranch:
			switch gn.op % 3 {
			case 0:
				fmt.Fprintf(&b, "        if ((r & %d) == 0) { a%d += %d; }\n", 15, d, 3+gn.k&63)
			case 1:
				b.WriteString("        x = x * 1103515245 + 12345;\n")
				fmt.Fprintf(&b, "        if ((x >> 16) & 1) { a%d += 13; } else { a%d -= 7; }\n", d, d)
			default:
				fmt.Fprintf(&b, "        a%d += %d;\n", d, gn.k&31)
			}
		}
	}
	b.WriteString("    }\n")
	b.WriteString("    int out = x;\n")
	for a := 0; a < g.accs; a++ {
		fmt.Fprintf(&b, "    out += a%d;\n", a)
	}
	b.WriteString("    return out;\n}\n")
	return b.String()
}

// Config parameterizes a GP run.
type Config struct {
	// RunSpec carries the shared execution envelope; Seed fixes the
	// evolutionary stream and Workers bounds the initial-population batch.
	core.RunSpec
	// Population size (default 24).
	Population int
	// MaxEvals bounds fitness evaluations (the runtime stand-in; the
	// paper's GP ran 39 h vs the LLM's 24 h).
	MaxEvals int
	// TournamentK for selection (default 3).
	TournamentK int
	// MutationRate per gene (default 0.25).
	MutationRate float64
	Boom         boom.RunOptions
}

func (c Config) withDefaults() Config {
	if c.Population == 0 {
		c.Population = 24
	}
	if c.MaxEvals == 0 {
		c.MaxEvals = 300
	}
	if c.TournamentK == 0 {
		c.TournamentK = 3
	}
	if c.MutationRate == 0 {
		c.MutationRate = 0.25
	}
	return c
}

// Individual pairs a rendered program with its fitness.
type Individual struct {
	Source string
	Score  float64
}

// Result reports a GP run.
type Result struct {
	Best       Individual
	Trajectory []float64 // best-so-far per evaluation
	Evals      int
}

// score evaluates a genome on the processor model. Its rule is stricter
// than the LLM loop's slt.Score, which measures a program still running
// when the window (opts.MaxInsts) closes: here a genome must halt inside
// the window, or it scores zero like one that does not compile or traps.
// The E6 and E8 results depend on this rule.
func score(g genome, opts boom.RunOptions) float64 {
	src := g.render()
	prog, err := chdl.ParseC(src)
	if err != nil {
		return 0
	}
	compiled, err := isa.Compile(prog, "main")
	if err != nil {
		return 0
	}
	res := boom.Run(compiled, opts)
	if res.Trap != nil || !res.Halted {
		return 0
	}
	return res.PowerW
}

// Run executes the GP loop. ctx is checked between fitness evaluations:
// a cancelled context stops the evolution promptly and returns the
// best-so-far result alongside ctx.Err(). Scored individuals stream to
// the context's event sink.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	sink := core.SinkOf(ctx)
	r := newRNG(cfg.Seed)
	res := &Result{}

	// Draw the whole initial population from the RNG first (scoring never
	// touches the RNG), then evaluate it as one parallel batch and fold
	// the trajectory sequentially — bit-identical to the serial loop.
	pop := make([]genome, cfg.Population)
	fit := make([]float64, cfg.Population)
	for i := range pop {
		pop[i] = randomGenome(r)
	}
	if err := simfarm.MapCtx(ctx, len(pop), cfg.Workers, func(i int) {
		fit[i] = score(pop[i], cfg.Boom)
	}); err != nil {
		return res, err // cancelled during the initial population
	}
	for i := range pop {
		res.Evals++
		if fit[i] > res.Best.Score {
			res.Best = Individual{Source: pop[i].render(), Score: fit[i]}
		}
		res.Trajectory = append(res.Trajectory, res.Best.Score)
	}
	sink.Emit(core.Event{
		Kind: core.EventPhaseEnd, Framework: "gp", Phase: "initial population",
		Total: cfg.Population, OK: true, Score: res.Best.Score,
	})

	for res.Evals < cfg.MaxEvals {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		a := tournament(r, fit, cfg.TournamentK)
		b := tournament(r, fit, cfg.TournamentK)
		child := crossover(r, pop[a], pop[b])
		child = mutate(r, child, cfg.MutationRate)
		f := score(child, cfg.Boom)
		res.Evals++
		if f > res.Best.Score {
			res.Best = Individual{Source: child.render(), Score: f}
		}
		res.Trajectory = append(res.Trajectory, res.Best.Score)
		sink.Emit(core.Event{
			Kind: core.EventCandidate, Framework: "gp", Phase: "fitness",
			Seq: res.Evals, Total: cfg.MaxEvals, Score: f, OK: f > 0,
			Detail: fmt.Sprintf("best so far %.3f W", res.Best.Score),
		})
		// Steady-state replacement: evict the worst of a small sample.
		victim := 0
		worst := fit[0]
		for k := 0; k < cfg.TournamentK; k++ {
			i := r.intn(len(pop))
			if fit[i] < worst {
				worst, victim = fit[i], i
			}
		}
		pop[victim], fit[victim] = child, f
	}
	return res, nil
}

func randomGenome(r *rngT) genome {
	g := genome{
		outer:  minOuter + r.intn(maxOuter-minOuter),
		accs:   2 + r.intn(maxAccs-1),
		arrLog: 4 + r.intn(10),
	}
	n := 3 + r.intn(10)
	for i := 0; i < n; i++ {
		g.body = append(g.body, randomGene(r))
	}
	return g
}

func randomGene(r *rngT) gene {
	return gene{
		kind: geneKind(1 + r.intn(int(geneKindCount))),
		dst:  r.intn(maxAccs),
		src:  r.intn(maxAccs),
		op:   r.intn(8),
		k:    int64(r.intn(1 << 13)),
	}
}

func tournament(r *rngT, fit []float64, k int) int {
	best := r.intn(len(fit))
	for i := 1; i < k; i++ {
		c := r.intn(len(fit))
		if fit[c] > fit[best] {
			best = c
		}
	}
	return best
}

// crossover splices the parents' loop bodies and averages scalar fields.
func crossover(r *rngT, a, b genome) genome {
	child := genome{
		outer:  pick2(r, a.outer, b.outer),
		accs:   pick2(r, a.accs, b.accs),
		arrLog: pick2(r, a.arrLog, b.arrLog),
	}
	cutA := r.intn(len(a.body) + 1)
	cutB := r.intn(len(b.body) + 1)
	child.body = append(child.body, a.body[:cutA]...)
	child.body = append(child.body, b.body[cutB:]...)
	if len(child.body) == 0 {
		child.body = append(child.body, randomGene(r))
	}
	if len(child.body) > maxBodyLen {
		child.body = child.body[:maxBodyLen]
	}
	return child.normalize()
}

func pick2(r *rngT, a, b int) int {
	if r.intn(2) == 0 {
		return a
	}
	return b
}

// mutate perturbs genes, structure and scalar fields.
func mutate(r *rngT, g genome, rate float64) genome {
	out := genome{outer: g.outer, accs: g.accs, arrLog: g.arrLog}
	out.body = append([]gene(nil), g.body...)
	for i := range out.body {
		if r.float() < rate {
			switch r.intn(4) {
			case 0:
				out.body[i] = randomGene(r)
			case 1:
				out.body[i].kind = geneKind(1 + r.intn(int(geneKindCount)))
			case 2:
				out.body[i].dst = r.intn(maxAccs)
				out.body[i].src = r.intn(maxAccs)
			default:
				out.body[i].k = int64(r.intn(1 << 13))
			}
		}
	}
	if r.float() < rate && len(out.body) < maxBodyLen {
		// Insert (possibly duplicating an existing gene: the classic GP
		// bloat that densifies the loop body).
		pos := r.intn(len(out.body) + 1)
		var gn gene
		if r.intn(2) == 0 && len(out.body) > 0 {
			gn = out.body[r.intn(len(out.body))]
		} else {
			gn = randomGene(r)
		}
		out.body = append(out.body[:pos], append([]gene{gn}, out.body[pos:]...)...)
	}
	if r.float() < rate/2 && len(out.body) > 1 {
		pos := r.intn(len(out.body))
		out.body = append(out.body[:pos], out.body[pos+1:]...)
	}
	if r.float() < rate {
		out.outer += r.intn(8001) - 4000
	}
	if r.float() < rate/2 {
		out.accs += r.intn(3) - 1
	}
	if r.float() < rate/2 {
		out.arrLog += r.intn(3) - 1
	}
	return out.normalize()
}

func (g genome) normalize() genome {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	g.outer = clamp(g.outer, minOuter, maxOuter)
	g.accs = clamp(g.accs, 1, maxAccs)
	g.arrLog = clamp(g.arrLog, 4, 13)
	return g
}

type rngT struct{ state uint64 }

func newRNG(seed uint64) *rngT {
	if seed == 0 {
		seed = 0xDEADBEEFCAFEF00D
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

func (r *rngT) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
