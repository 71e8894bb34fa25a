// Package benchset provides the VerilogEval-style benchmark suite the
// AutoChip/VRank experiments evaluate on: natural-language specs, hidden
// reference implementations, and high-quality self-checking testbenches
// (AutoChip's required input). Problems span combinational logic,
// arithmetic, sequential logic and FSMs with difficulties 1-5.
//
// Combinational testbenches are generated from Go golden functions, so
// reference implementations are correct by construction and the checks
// cover the input space systematically; sequential testbenches are
// hand-written cycle scripts.
package benchset

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Port describes one DUT port for testbench construction.
type Port struct {
	Name  string
	Width int
	// IsInput is true for stimulus ports.
	IsInput bool
}

// Problem is one benchmark entry. Problems are built once per process and
// shared by every caller, across goroutines: treat every field as
// read-only.
type Problem struct {
	ID         string
	Spec       string
	Difficulty int // 1..5
	TopModule  string
	// Reference is the hidden ground-truth implementation (the simulated
	// LLM's latent knowledge).
	Reference string
	// Testbench pieces: Header + Blocks + Footer concatenate into the
	// full self-checking bench with top module "tb". The split exists so
	// the testbench-generation task can model coverage loss.
	TBHeader string
	TBBlocks []string
	TBFooter string
	// Ports lists the DUT interface for combinational problems (empty for
	// sequential ones); the cross-level checker drives stimuli through it.
	Ports []Port
	// CModel is an untimed C behavioral reference (one function per
	// output port, named like the port) used by the high-level-guided
	// debugging extension; empty when not provided.
	CModel string
	// XAlign maps extra C model functions to RTL signal names inside the
	// DUT (relative to the instance) for cross-level trace alignment:
	// name matching covers the output ports automatically, and this
	// per-problem override table extends the alignment to internal
	// signals the C model also exposes (e.g. satadd8's 9-bit "full"
	// intermediate). Nil when port-name matching is sufficient.
	XAlign map[string]string

	// tb memoizes the concatenated testbench: every framework scores
	// whole candidate batches against it, and rebuilding the multi-KB
	// source per score was a measurable allocation cost. The pieces
	// above are treated as immutable after construction.
	tbOnce sync.Once
	tb     string
}

// Testbench returns the full reference testbench.
func (p *Problem) Testbench() string {
	p.tbOnce.Do(func() {
		var b strings.Builder
		n := len(p.TBHeader) + len(p.TBFooter)
		for _, blk := range p.TBBlocks {
			n += len(blk)
		}
		b.Grow(n)
		b.WriteString(p.TBHeader)
		for _, blk := range p.TBBlocks {
			b.WriteString(blk)
		}
		b.WriteString(p.TBFooter)
		p.tb = b.String()
	})
	return p.tb
}

// Checks returns the number of $check_eq checks in the full testbench.
func (p *Problem) Checks() int {
	return strings.Count(p.Testbench(), "$check_eq")
}

// combProblem builds a combinational problem: the testbench enumerates the
// given input vectors and checks every output against the golden function.
func combProblem(id, spec string, difficulty int, top, reference string,
	ports []Port, golden func(in map[string]uint64) map[string]uint64,
	vectors []map[string]uint64) *Problem {

	var header strings.Builder
	header.WriteString("module tb;\n")
	var conns []string
	for _, p := range ports {
		kind := "wire"
		if p.IsInput {
			kind = "reg"
		}
		if p.Width > 1 {
			fmt.Fprintf(&header, "  %s [%d:0] %s;\n", kind, p.Width-1, p.Name)
		} else {
			fmt.Fprintf(&header, "  %s %s;\n", kind, p.Name)
		}
		conns = append(conns, fmt.Sprintf(".%s(%s)", p.Name, p.Name))
	}
	fmt.Fprintf(&header, "  %s dut(%s);\n", top, strings.Join(conns, ", "))
	header.WriteString("  initial begin\n")

	var blocks []string
	for _, vec := range vectors {
		var blk strings.Builder
		for _, p := range ports {
			if p.IsInput {
				fmt.Fprintf(&blk, "    %s = %d'd%d;\n", p.Name, p.Width, vec[p.Name]&maskBits(p.Width))
			}
		}
		blk.WriteString("    #1;\n")
		out := golden(vec)
		for _, p := range ports {
			if !p.IsInput {
				fmt.Fprintf(&blk, "    $check_eq(%s, %d'd%d);\n", p.Name, p.Width, out[p.Name]&maskBits(p.Width))
			}
		}
		blocks = append(blocks, blk.String())
	}

	footer := "    $finish;\n  end\nendmodule\n"
	return &Problem{
		ID: id, Spec: spec, Difficulty: difficulty, TopModule: top,
		Reference: reference,
		TBHeader:  header.String(), TBBlocks: blocks, TBFooter: footer,
		Ports: ports,
	}
}

func maskBits(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// sweep2 enumerates the cross product of two input ranges.
func sweep2(aName string, aN uint64, bName string, bN uint64) []map[string]uint64 {
	var out []map[string]uint64
	for a := uint64(0); a < aN; a++ {
		for b := uint64(0); b < bN; b++ {
			out = append(out, map[string]uint64{aName: a, bName: b})
		}
	}
	return out
}

// sample2 samples deterministic pseudo-random pairs for wide inputs.
func sample2(aName string, aW int, bName string, bW int, n int) []map[string]uint64 {
	var out []map[string]uint64
	state := uint64(0x1234_5678_9ABC_DEF0)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < n; i++ {
		out = append(out, map[string]uint64{
			aName: next() & maskBits(aW),
			bName: next() & maskBits(bW),
		})
	}
	return out
}

// sweep1 enumerates one input.
func sweep1(name string, n uint64) []map[string]uint64 {
	var out []map[string]uint64
	for v := uint64(0); v < n; v++ {
		out = append(out, map[string]uint64{name: v})
	}
	return out
}

// suite builds the problems and their ID index on first use and shares
// them for the life of the process: a build takes about 26k allocations,
// and a served job looks problems up three or four times.
var suite = sync.OnceValues(func() ([]*Problem, map[string]*Problem) {
	var ps []*Problem
	ps = append(ps, combSuite()...)
	ps = append(ps, seqSuite()...)
	ps = attachCModels(ps)
	byID := make(map[string]*Problem, len(ps))
	for _, p := range ps {
		byID[p.ID] = p
	}
	return ps, byID
})

// Suite returns the full benchmark suite in construction order: the
// combinational problems, then the sequential ones. The slice is a fresh
// copy the caller may reorder or truncate; the problems it points to are
// shared.
func Suite() []*Problem {
	ps, _ := suite()
	return slices.Clone(ps)
}

// ByID returns the named problem, or nil. It is the same pointer Suite
// holds for that ID.
func ByID(id string) *Problem {
	_, byID := suite()
	return byID[id]
}

// EightDesignSet returns the 8-problem subset mirroring the benchmark set
// of the paper's structured conversational flow study [10]: mostly
// sequential designs of the same classes that study used (shift register,
// sequence detector, LFSR, PWM, counters, edge logic).
func EightDesignSet() []*Problem {
	ids := []string{"shift4", "det101", "lfsr8", "pwm4", "counter8", "updown4", "edgedet", "adder4"}
	var out []*Problem
	for _, id := range ids {
		if p := ByID(id); p != nil {
			out = append(out, p)
		}
	}
	return out
}
