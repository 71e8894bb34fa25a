package boom

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
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
	raw, err := os.ReadFile(filepath.Join("testdata", "boom_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenProgram
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	const programs = 52
	if len(want) != programs {
		t.Fatalf("fixture holds %d programs, want %d", len(want), programs)
	}
	for _, prog := range want {
		p := &isa.Program{Start: prog.Start, Insts: make([]isa.Inst, len(prog.Insts))}
		for i, in := range prog.Insts {
			p.Insts[i] = isa.Inst{Op: isa.Op(in[0]), Rd: int(in[1]), Rs1: int(in[2]), Rs2: int(in[3]), Imm: in[4]}
		}
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
