package verilog

// Commit-time signal probes: the trace-capture layer of the cross-level
// debugger (internal/xdebug). A probe observes every committed store —
// the exact transitions the event kernel acts on — carrying the
// simulation time, the signal, the committed word value and the source
// line of the committing statement, resolved from the bytecode debug
// info (Instr.Line) or the continuous assign's recorded position.
//
// Zero-overhead-when-off contract: with no probe attached the only
// additions to the hot paths are a nil check per commit and a dead int32
// store per VM store opcode; the kernel golden suite stays byte-identical
// and BenchmarkKernelProbeOff guards the cost. Soundness note: probes
// observe *transitions*, not values — a commit that leaves the word
// unchanged is filtered before the probe fires (exactly as it is
// filtered before propagation), so consumers must carry values forward
// between events. That filtering is also why attaching a probe cannot
// perturb results: the probe runs strictly after the slot write and
// mutates no simulator state.

// ProbeFunc observes one committed signal transition. t is the
// simulation time, word the store word index (0 for all scalar/vector
// signals), line the 1-based source line of the committing statement (0
// when the committing site carries no position), and v the new word
// value after the masked merge.
type ProbeFunc func(t uint64, sig SignalID, word int, line int32, v Value)

// SetProbe attaches (or, with nil, detaches) a commit probe. Must be
// called before Run.
func (s *Simulator) SetProbe(p ProbeFunc) {
	s.probe = p
}
