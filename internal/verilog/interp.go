package verilog

import "fmt"

// This file is the process engine. PR 3 made each process an explicit
// resumable interpreter over the bound AST (a continuation stack of
// statement frames); this PR compiles the AST away: every process body is
// lowered once to a flat bytecode program (bytecode.go), and a runner is
// now just that program plus a register file and a resume pc. A scheduler
// dispatch is a method call into the VM loop (vm.go); a suspension
// (delay, event wait) records an integer pc instead of a frame stack.
// Statement semantics, step accounting, and wake ordering remain
// bit-identical to the seed kernel (pinned by the golden fixtures in
// testdata/kernel_golden.json).

// procStatus is what a runner resume reports back to the scheduler.
type procStatus int

const (
	procSuspended procStatus = iota + 1 // armed a delay or event wait
	procEnded                           // body completed (initial): never resume again
	procFinished                        // $finish/$fatal executed
	procErrored                         // runtime diagnostic or budget exhaustion
)

// runner executes one behavioral process on the VM.
type runner struct {
	sim  *Simulator
	proc *process

	prog *Program
	regs []Value // register file: a slice of the simulator's pooled slab
	pc   int     // resume position within prog.code

	started bool
	sens    []resolvedSens // process-level sensitivity (always blocks)
	done    bool
	watch   watchEntry
	scratch []byte // reusable $display formatting buffer
}

// resolvedSens is a sensitivity item bound to a flattened signal.
type resolvedSens struct {
	sig  SignalID
	edge EdgeKind
}

// activate performs the first-dispatch work of the process kinds: initial
// and @*/timing-only always blocks run their body immediately; a
// sensitivity-listed always block resolves its list and waits first.
func (r *runner) activate() (procStatus, error) {
	pr := r.proc
	switch {
	case pr.kind == procInitial:
		return 0, nil // run from pc 0
	case pr.star:
		sens := make([]resolvedSens, 0, len(pr.reads))
		seen := map[SignalID]bool{}
		for _, sig := range pr.reads {
			if !seen[sig] {
				seen[sig] = true
				sens = append(sens, resolvedSens{sig: sig, edge: EdgeAny})
			}
		}
		r.sens = sens
		return 0, nil // @* runs once at activation
	case len(pr.sens) > 0:
		sens, err := resolveSensIn(pr.scope, pr.sens)
		if err != nil {
			return 0, err
		}
		r.sens = sens
		r.await(sens)
		return procSuspended, nil
	default:
		// always <body> with internal timing control.
		if !r.prog.hasTiming {
			return 0, fmt.Errorf("verilog: always block %s has no sensitivity or timing control", pr.name)
		}
		return 0, nil
	}
}

// resume runs the process from its last suspension point until it
// suspends again, completes, or stops the simulation. On procSuspended
// the runner has already armed its wake condition (a timed event on the
// scheduler heap, or watcher registrations). The first opcode executed
// after any wake is the body's budget charge, so MaxSteps accounting
// lands exactly where the tree kernel charged its continuation pushes.
func (r *runner) resume() (procStatus, error) {
	if !r.started {
		r.started = true
		st, err := r.activate()
		if err != nil {
			return procErrored, err
		}
		if st == procSuspended {
			return procSuspended, nil
		}
	}
	status, err := vmRun(r.sim, r.prog, r.regs, r, r.pc)
	switch status {
	case vmSuspend:
		return procSuspended, nil
	case vmFinish:
		return procFinished, nil
	case vmErr:
		return procErrored, err
	default: // vmEnd: only initial bodies run off the end of their program
		return procEnded, nil
	}
}

// watcherSweepMin is the smallest watcher-list length that triggers an
// arm-time stale-ref compaction (see Simulator.watchSweep).
const watcherSweepMin = 16

// await arms the runner's reusable watch entry on the given sensitivity
// list. Bumping the generation invalidates any references still sitting
// in watcher lists from earlier waits, so re-arming never allocates.
// Lists that reach their sweep threshold are compacted here, amortized
// O(1) per arm: each sweep resets the threshold to double the live count,
// so a list is only rescanned after it has doubled again.
func (r *runner) await(sens []resolvedSens) {
	w := &r.watch
	w.gen++
	w.fired = false
	w.sens = sens
	s := r.sim
	for _, it := range sens {
		l := s.watchers[it.sig]
		if len(l) >= int(s.watchSweep[it.sig]) {
			kept := l[:0]
			for _, ref := range l {
				if ref.gen == ref.w.gen && !ref.w.fired && !ref.w.r.done {
					kept = append(kept, ref)
				}
			}
			l = kept
			s.watchSweep[it.sig] = int32(max(watcherSweepMin, 2*len(l)))
		}
		s.watchers[it.sig] = append(l, watchRef{w: w, gen: w.gen})
	}
}

// containsTiming reports whether a statement subtree contains a delay or
// event control (used at lowering time to reject zero-delay infinite
// always loops and forever bodies).
func containsTiming(st Stmt) bool {
	switch n := st.(type) {
	case *DelayStmt, *EventStmt, *WaitStmt:
		return true
	case *Block:
		for _, c := range n.Stmts {
			if containsTiming(c) {
				return true
			}
		}
	case *IfStmt:
		return containsTiming(n.Then) || (n.Else != nil && containsTiming(n.Else))
	case *CaseStmt:
		for _, it := range n.Items {
			if containsTiming(it.Body) {
				return true
			}
		}
	case *ForStmt:
		return containsTiming(n.Body)
	case *WhileStmt:
		return containsTiming(n.Body)
	case *RepeatStmt:
		return containsTiming(n.Body)
	case *ForeverStmt:
		return containsTiming(n.Body)
	}
	return false
}
