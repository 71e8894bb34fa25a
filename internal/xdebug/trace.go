package xdebug

import (
	"fmt"

	"llm4eda/internal/simfarm"
	"llm4eda/internal/verilog"
)

// rtlTrace is the reconstructed per-epoch view of the watched signals.
// The probe reports transitions only, so reconstruction carries values
// forward from all-X: vals[e][oi] is the value at the END of epoch e
// whether or not the signal committed during it.
type rtlTrace struct {
	vals [][]verilog.Value
	// lines[e][oi] is the source line of the last commit to observable
	// oi within epoch e (0 = no commit that epoch).
	lines [][]int32
	// seqs[e][oi] is the global event order of that last commit (-1 = no
	// commit). The localizer uses it to pick the divergent observable
	// whose wrong value appeared first within the epoch — upstream of
	// anything it then corrupted.
	seqs [][]int
}

// traceRTL compiles candidate+bench, simulates with the commit probe
// attached, and reconstructs the aligned trace. The returned SimResult
// carries any runtime fault; compile errors return as err.
func (h *Harness) traceRTL(candidate string) (*rtlTrace, *verilog.SimResult, error) {
	cd, err := simfarm.Default().Compile(benchTop, candidate, h.bench)
	if err != nil {
		return nil, nil, err
	}
	// Alignment: watched hierarchical names -> observable index. An
	// XAlign internal signal a candidate restructured away is skipped;
	// output ports always elaborate (the bench connects them).
	watch := map[verilog.SignalID]int{}
	for oi, ob := range h.obs {
		sig, ok := cd.Design.SignalByName(benchTop + "." + benchInst + "." + ob.signal)
		if !ok {
			if ob.port {
				return nil, nil, fmt.Errorf("xdebug: candidate lacks output signal %q", ob.signal)
			}
			continue
		}
		watch[sig.ID] = oi
	}

	type probeEv struct {
		epoch, oi int
		v         verilog.Value
		line      int32
	}
	var evs []probeEv
	n := len(h.vectors)
	sim := verilog.NewSimulator(cd.Design, verilog.SimOptions{})
	sim.SetProbe(func(t uint64, sig verilog.SignalID, word int, line int32, v verilog.Value) {
		oi, ok := watch[sig]
		if !ok || word != 0 {
			return
		}
		e := int(t)
		if e >= n {
			e = n - 1
		}
		evs = append(evs, probeEv{epoch: e, oi: oi, v: v, line: line})
	})
	res, err := sim.Run()
	if err != nil {
		return nil, nil, err
	}

	tr := &rtlTrace{
		vals:  make([][]verilog.Value, n),
		lines: make([][]int32, n),
		seqs:  make([][]int, n),
	}
	cur := make([]verilog.Value, len(h.obs))
	for oi, ob := range h.obs {
		cur[oi] = verilog.AllX(ob.width)
	}
	ei := 0
	for e := 0; e < n; e++ {
		tr.lines[e] = make([]int32, len(h.obs))
		tr.seqs[e] = make([]int, len(h.obs))
		for oi := range h.obs {
			tr.seqs[e][oi] = -1
		}
		// Events arrive in time order and epoch clamping preserves it.
		for ; ei < len(evs) && evs[ei].epoch == e; ei++ {
			x := evs[ei]
			cur[x.oi] = x.v
			tr.lines[e][x.oi] = x.line
			tr.seqs[e][x.oi] = ei
		}
		tr.vals[e] = make([]verilog.Value, len(h.obs))
		copy(tr.vals[e], cur)
	}
	return tr, res, nil
}
