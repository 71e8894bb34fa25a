package boom

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llm4eda/internal/isa"
)

// goldenProgram is one fixture entry: an instruction stream (each
// instruction as [op, rd, rs1, rs2, imm]), its bootstrap index, and the
// recorded outcome of running it under each measurement window.
type goldenProgram struct {
	Name  string      `json:"name"`
	Start int         `json:"start"`
	Insts [][5]int64  `json:"insts"`
	Runs  []goldenRun `json:"runs"`
}

// goldenRun records every Result field of one run. Floating-point
// fields are kept as IEEE-754 bits so the comparison is exact.
type goldenRun struct {
	MaxInsts     uint64            `json:"max_insts"`
	ReturnValue  int32             `json:"return_value"`
	Halted       bool              `json:"halted"`
	TimedOut     bool              `json:"timed_out"`
	Trap         string            `json:"trap"`
	Insts        uint64            `json:"insts"`
	Cycles       uint64            `json:"cycles"`
	Branches     uint64            `json:"branches"`
	Mispredicts  uint64            `json:"mispredicts"`
	CacheAccess  uint64            `json:"cache_access"`
	CacheMisses  uint64            `json:"cache_misses"`
	ClassCounts  map[string]uint64 `json:"class_counts"`
	IPCBits      uint64            `json:"ipc_bits"`
	PowerWBits   uint64            `json:"power_w_bits"`
	EnergyJBits  uint64            `json:"energy_j_bits"`
	RuntimeSBits uint64            `json:"runtime_s_bits"`
}

// loadGolden reads the 52 programs of testdata/boom_golden.json.
func loadGolden(tb testing.TB) []goldenProgram {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "boom_golden.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var progs []goldenProgram
	if err := json.Unmarshal(raw, &progs); err != nil {
		tb.Fatal(err)
	}
	const programs = 52
	if len(progs) != programs {
		tb.Fatalf("fixture holds %d programs, want %d", len(progs), programs)
	}
	return progs
}

// program builds the fixture entry's isa.Program.
func (g goldenProgram) program() *isa.Program {
	p := &isa.Program{Start: g.Start, Insts: make([]isa.Inst, len(g.Insts))}
	for i, in := range g.Insts {
		p.Insts[i] = isa.Inst{Op: isa.Op(in[0]), Rd: int(in[1]), Rs1: int(in[2]), Rs2: int(in[3]), Imm: in[4]}
	}
	return p
}

func recordRun(maxInsts uint64, res *Result) goldenRun {
	g := goldenRun{
		MaxInsts:     maxInsts,
		ReturnValue:  res.ReturnValue,
		Halted:       res.Halted,
		TimedOut:     res.TimedOut,
		Insts:        res.Insts,
		Cycles:       res.Cycles,
		Branches:     res.Branches,
		Mispredicts:  res.Mispredicts,
		CacheAccess:  res.CacheAccess,
		CacheMisses:  res.CacheMisses,
		ClassCounts:  map[string]uint64{},
		IPCBits:      math.Float64bits(res.IPC),
		PowerWBits:   math.Float64bits(res.PowerW),
		EnergyJBits:  math.Float64bits(res.EnergyJ),
		RuntimeSBits: math.Float64bits(res.RuntimeS),
	}
	if res.Trap != nil {
		g.Trap = res.Trap.Error()
	}
	for c := isa.FUALU; c <= isa.FUBranch; c++ {
		g.ClassCounts[c.String()] = res.ClassCounts[c]
	}
	return g
}

// TestResultGolden pins the simulated statistics of the processor model:
// every program in testdata/boom_golden.json must reproduce, field for
// field and bit for bit, the Result recorded for it under each window.
// The corpus holds the SLT seed examples, random GP genomes, final SLT
// pools and GP bests of several seeds, an out-of-range load, an
// out-of-range store, a bad jalr target, a program that never halts,
// page-edge loads and stores, and a store-forwarding reset pair: k stores
// to words 0..k-1, then a store and a load of word 500000, with k = 65535
// (the table holds 2^16 entries and keeps the new one) and k = 65536 (the
// insert overflows the table and clears it, so the load does not wait for
// the store). The fixture was recorded before the model's maps,
// value copies and dense memory were removed. There is no update path: a
// divergence is a model regression, not a fixture change.
func TestResultGolden(t *testing.T) {
	for _, prog := range loadGolden(t) {
		p := prog.program()
		for _, w := range prog.Runs {
			got := recordRun(w.MaxInsts, Run(p, RunOptions{MaxInsts: w.MaxInsts}))
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(w)
			if string(gj) != string(wj) {
				t.Errorf("%s, window %d: run diverged from the fixture\n want %s\n  got %s", prog.Name, w.MaxInsts, wj, gj)
			}
		}
	}
}

// robProbeSource puts one cache miss per iteration behind 40
// accumulator updates: the load strides 4099 words through arr's 64K,
// landing on a new L1 line each time, and the updates rotate over eight
// accumulators, so how far the core runs ahead of each miss is set by
// the reorder-buffer window rather than by one dependence chain.
func robProbeSource() string {
	var b strings.Builder
	b.WriteString("int arr[65536];\nint main() {\n    int a = 0;\n")
	for j := 0; j < 8; j++ {
		fmt.Fprintf(&b, "    int v%d = 0;\n", j)
	}
	b.WriteString("    for (int r = 0; r < 500; r++) {\n        a += arr[(r*4099) & 65535];\n")
	for j := 0; j < 40; j++ {
		fmt.Fprintf(&b, "        v%d = v%d + %d;\n", j%8, j%8, j+1)
	}
	b.WriteString("    }\n    return a + v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7;\n}\n")
	return b.String()
}

// TestROBWindowGolden pins the reorder-buffer size, which
// boom_golden.json does not: with 95 or 97 entries, or a ring that wraps
// at 95, every fixture program still reproduces. This program's cycle
// count moves with it (27,911 when the ring wraps at 95; 27,661 with 97
// entries). The expected Result was recorded before the core's
// configuration became compile-time constants.
func TestROBWindowGolden(t *testing.T) {
	want := goldenRun{
		MaxInsts:    400_000,
		ReturnValue: 410000,
		Halted:      true,
		Insts:       89549,
		Cycles:      27786,
		Branches:    501,
		Mispredicts: 1,
		CacheAccess: 43522,
		CacheMisses: 502,
		ClassCounts: map[string]uint64{
			"alu": 44523, "branch": 1004, "div": 0, "load": 22511, "mul": 500, "store": 21011,
		},
		IPCBits:      4614439541866155041,
		PowerWBits:   4617975891929418790,
		EnergyJBits:  4558560514751301069,
		RuntimeSBits: 4555469773388628875,
	}
	res := compileAndRun(t, robProbeSource(), RunOptions{MaxInsts: want.MaxInsts})
	gj, _ := json.Marshal(recordRun(want.MaxInsts, res))
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Errorf("run diverged from the recorded Result\n want %s\n  got %s", wj, gj)
	}
}

// benchResult keeps BenchmarkRun's results live.
var benchResult *Result

// BenchmarkRun scores the 52 fixture programs at their 400,000-instruction
// window, the window the SLT and GP pipelines run under.
func BenchmarkRun(b *testing.B) {
	var progs []*isa.Program
	for _, g := range loadGolden(b) {
		progs = append(progs, g.program())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			benchResult = Run(p, RunOptions{MaxInsts: 400_000})
		}
	}
}
