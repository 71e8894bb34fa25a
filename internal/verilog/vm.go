package verilog

import (
	"fmt"
	"strconv"
)

// This file is the run side of the bytecode execution engine: a single
// register-machine dispatch loop shared by behavioral processes (their
// runner carries the resumable pc, register file and watch entry) and
// continuous assignments (no runner: straight-line evaluate-and-store
// programs on a per-assign scratch region of the simulator's
// register slab). Suspension is a plain pc: a delay or event wait stores
// the resume position on the runner and returns, so the PR 3 dispatch
// model carries over with an integer where the continuation stack was.
//
// Two-state execution is the fast path throughout: every value opcode
// checks the operand Unknown masks once and runs pure uint64 arithmetic
// when no X is present, falling into the shared 4-state routines in
// value.go otherwise. (A static "this process never sees X" proof is
// unsound in this kernel — all state starts at X before reset — so the
// specialization is a per-dispatch branch, which predicts perfectly in
// post-reset steady state.)

// vmStatus is the outcome of one vmRun call.
type vmStatus int

const (
	vmEnd     vmStatus = iota // program complete (initial body / cont assign)
	vmSuspend                 // armed a delay or event wait; pc saved on the runner
	vmFinish                  // $finish/$stop executed
	vmErr                     // runtime diagnostic (or budget exhaustion)
)

// vmRun executes prog from pc until it ends, suspends, finishes, or
// fails; it is the one executor of every process body and continuous
// assignment. r is nil for continuous-assign programs (which never
// contain process-only opcodes). Errors from a process context are
// wrapped with the raising instruction's statement line exactly like the
// tree kernel wrapped statement execution; final diagnostics (already
// positioned) and continuous-assign errors pass through raw for the
// caller to wrap.
func vmRun(s *Simulator, prog *Program, regs []Value, r *runner, pc int) (vmStatus, error) {
	code := prog.code
	maxSteps := s.opts.MaxSteps
	fail := func(ins *Instr, err error) (vmStatus, error) {
		if r != nil {
			err = fmt.Errorf("line %d: %w", ins.Line, err)
		}
		return vmErr, err
	}
	for {
		ins := &code[pc]
		switch ins.Op {
		case opStep:
			s.steps++
			if s.steps > maxSteps {
				return vmErr, errBudget
			}
			pc++

		case opJump:
			pc = int(ins.A)

		case opBranchFalse:
			if !regs[ins.A].IsTrue() {
				pc = int(ins.B)
			} else {
				pc++
			}

		case opBranchTrue:
			if regs[ins.A].IsTrue() {
				pc = int(ins.B)
			} else {
				pc++
			}

		case opEnd:
			return vmEnd, nil

		case opAlwaysWait:
			pr := r.proc
			if pr.star && len(r.sens) == 0 {
				return vmErr, fmt.Errorf("verilog: always @* block %s reads no signals", pr.name)
			}
			r.await(r.sens)
			r.pc = 0
			return vmSuspend, nil

		case opFinish:
			return vmFinish, nil

		case opError:
			err := prog.errs[ins.B]
			if ins.A == 1 {
				return vmErr, err
			}
			return fail(ins, err)

		case opCaseBr:
			if caseMatch(regs[ins.A], regs[ins.B], ins.D != 0) {
				pc = int(ins.C)
			} else {
				pc++
			}

		case opConst:
			regs[ins.A] = prog.consts[ins.B]
			pc++

		case opLoadSig:
			regs[ins.A] = s.store[s.design.wordOffset[ins.B]]
			pc++

		case opLoadMem:
			sig := s.design.Signals[ins.B]
			idx := regs[ins.C]
			if !idx.IsFullyKnown() {
				regs[ins.A] = AllX(sig.Width)
			} else if w := int(idx.Uint()); w < 0 || w >= sig.Words {
				regs[ins.A] = AllX(sig.Width)
			} else {
				regs[ins.A] = s.words(sig.ID)[w]
			}
			pc++

		case opTime:
			regs[ins.A] = NewValue(s.now, 64)
			pc++

		case opRandom:
			regs[ins.A] = NewValue(s.random()&0xFFFFFFFF, 32)
			pc++

		case opClog2:
			v := regs[ins.A]
			if !v.IsFullyKnown() {
				regs[ins.A] = AllX(32)
			} else {
				x := v.Uint()
				n := 0
				// Capped at 64 like the tree evaluator: an unbounded
				// shift spins forever for x > 2^63.
				for n < 64 && (uint64(1)<<uint(n)) < x {
					n++
				}
				regs[ins.A] = NewValue(uint64(n), 32)
			}
			pc++

		// --- unary ------------------------------------------------------
		case opNot:
			x := regs[ins.A]
			regs[ins.A] = Not(x, x.Width)
			pc++
		case opNeg:
			x := regs[ins.A]
			regs[ins.A] = Sub(NewValue(0, x.Width), x, x.Width)
			pc++
		case opLogNot:
			regs[ins.A] = LogicalNot(regs[ins.A])
			pc++
		case opRedAnd:
			regs[ins.A] = ReduceAnd(regs[ins.A])
			pc++
		case opRedOr:
			regs[ins.A] = ReduceOr(regs[ins.A])
			pc++
		case opRedXor:
			regs[ins.A] = ReduceXor(regs[ins.A])
			pc++
		case opRedNand:
			regs[ins.A] = LogicalNot(ReduceAnd(regs[ins.A]))
			pc++
		case opRedNor:
			regs[ins.A] = LogicalNot(ReduceOr(regs[ins.A]))
			pc++
		case opRedXnor:
			regs[ins.A] = LogicalNot(ReduceXor(regs[ins.A]))
			pc++

		// --- binary -----------------------------------------------------
		// Register values are invariantly masked to their width, so the
		// Resize calls applyBinary made are identities here and the
		// two-state paths reduce to single uint64 operations.
		case opAdd:
			x, y := regs[ins.A], regs[ins.B]
			w := max(x.Width, y.Width)
			if w < 64 {
				w++
			}
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(w)
			} else {
				regs[ins.A] = NewValue(x.Bits+y.Bits, w)
			}
			pc++
		case opSub:
			x, y := regs[ins.A], regs[ins.B]
			w := max(x.Width, y.Width)
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(w)
			} else {
				regs[ins.A] = NewValue(x.Bits-y.Bits, w)
			}
			pc++
		case opMul:
			x, y := regs[ins.A], regs[ins.B]
			w := x.Width + y.Width
			if w > 64 {
				w = 64
			}
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(w)
			} else {
				regs[ins.A] = NewValue(x.Bits*y.Bits, w)
			}
			pc++
		case opDiv:
			x, y := regs[ins.A], regs[ins.B]
			w := max(x.Width, y.Width)
			if x.Unknown|y.Unknown != 0 || y.Bits == 0 {
				regs[ins.A] = AllX(w)
			} else {
				regs[ins.A] = NewValue(x.Bits/y.Bits, w)
			}
			pc++
		case opMod:
			x, y := regs[ins.A], regs[ins.B]
			w := max(x.Width, y.Width)
			if x.Unknown|y.Unknown != 0 || y.Bits == 0 {
				regs[ins.A] = AllX(w)
			} else {
				regs[ins.A] = NewValue(x.Bits%y.Bits, w)
			}
			pc++
		case opAnd:
			x, y := regs[ins.A], regs[ins.B]
			regs[ins.A] = And(x, y, max(x.Width, y.Width))
			pc++
		case opOr:
			x, y := regs[ins.A], regs[ins.B]
			regs[ins.A] = Or(x, y, max(x.Width, y.Width))
			pc++
		case opXor:
			x, y := regs[ins.A], regs[ins.B]
			regs[ins.A] = Xor(x, y, max(x.Width, y.Width))
			pc++
		case opXnor:
			x, y := regs[ins.A], regs[ins.B]
			w := max(x.Width, y.Width)
			regs[ins.A] = Not(Xor(x, y, w), w)
			pc++
		case opNand:
			x, y := regs[ins.A], regs[ins.B]
			w := max(x.Width, y.Width)
			regs[ins.A] = Not(And(x, y, w), w)
			pc++
		case opNor:
			x, y := regs[ins.A], regs[ins.B]
			w := max(x.Width, y.Width)
			regs[ins.A] = Not(Or(x, y, w), w)
			pc++
		case opShl:
			x, y := regs[ins.A], regs[ins.B]
			regs[ins.A] = Shl(x, y, x.Width)
			pc++
		case opShr:
			x, y := regs[ins.A], regs[ins.B]
			regs[ins.A] = Shr(x, y, x.Width)
			pc++
		case opEq:
			x, y := regs[ins.A], regs[ins.B]
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = cmpBool(x.Bits == y.Bits)
			}
			pc++
		case opNe:
			x, y := regs[ins.A], regs[ins.B]
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = cmpBool(x.Bits != y.Bits)
			}
			pc++
		case opCaseEq:
			regs[ins.A] = cmpBool(regs[ins.A].Equal(regs[ins.B]))
			pc++
		case opCaseNe:
			regs[ins.A] = cmpBool(!regs[ins.A].Equal(regs[ins.B]))
			pc++
		case opLt:
			x, y := regs[ins.A], regs[ins.B]
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = cmpBool(x.Bits < y.Bits)
			}
			pc++
		case opGt:
			x, y := regs[ins.A], regs[ins.B]
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = cmpBool(y.Bits < x.Bits)
			}
			pc++
		case opLe:
			x, y := regs[ins.A], regs[ins.B]
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = cmpBool(!(y.Bits < x.Bits))
			}
			pc++
		case opGe:
			x, y := regs[ins.A], regs[ins.B]
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = cmpBool(!(x.Bits < y.Bits))
			}
			pc++
		case opLogAnd:
			regs[ins.A] = LogicalAnd(regs[ins.A], regs[ins.B])
			pc++
		case opLogOr:
			regs[ins.A] = LogicalOr(regs[ins.A], regs[ins.B])
			pc++

		// --- binary, constant RHS ---------------------------------------
		case opAddK:
			x, y := regs[ins.A], prog.consts[ins.B]
			w := max(x.Width, y.Width)
			if w < 64 {
				w++
			}
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(w)
			} else {
				regs[ins.A] = NewValue(x.Bits+y.Bits, w)
			}
			pc++
		case opSubK:
			x, y := regs[ins.A], prog.consts[ins.B]
			w := max(x.Width, y.Width)
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(w)
			} else {
				regs[ins.A] = NewValue(x.Bits-y.Bits, w)
			}
			pc++
		case opMulK:
			x, y := regs[ins.A], prog.consts[ins.B]
			w := x.Width + y.Width
			if w > 64 {
				w = 64
			}
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(w)
			} else {
				regs[ins.A] = NewValue(x.Bits*y.Bits, w)
			}
			pc++
		case opAndK:
			x, y := regs[ins.A], prog.consts[ins.B]
			regs[ins.A] = And(x, y, max(x.Width, y.Width))
			pc++
		case opOrK:
			x, y := regs[ins.A], prog.consts[ins.B]
			regs[ins.A] = Or(x, y, max(x.Width, y.Width))
			pc++
		case opXorK:
			x, y := regs[ins.A], prog.consts[ins.B]
			regs[ins.A] = Xor(x, y, max(x.Width, y.Width))
			pc++
		case opShlK:
			x := regs[ins.A]
			regs[ins.A] = Shl(x, prog.consts[ins.B], x.Width)
			pc++
		case opShrK:
			x := regs[ins.A]
			regs[ins.A] = Shr(x, prog.consts[ins.B], x.Width)
			pc++
		case opEqK:
			x, y := regs[ins.A], prog.consts[ins.B]
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = cmpBool(x.Bits == y.Bits)
			}
			pc++
		case opNeK:
			x, y := regs[ins.A], prog.consts[ins.B]
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = cmpBool(x.Bits != y.Bits)
			}
			pc++
		case opLtK:
			x, y := regs[ins.A], prog.consts[ins.B]
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = cmpBool(x.Bits < y.Bits)
			}
			pc++
		case opGtK:
			x, y := regs[ins.A], prog.consts[ins.B]
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = cmpBool(y.Bits < x.Bits)
			}
			pc++
		case opLeK:
			x, y := regs[ins.A], prog.consts[ins.B]
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = cmpBool(!(y.Bits < x.Bits))
			}
			pc++
		case opGeK:
			x, y := regs[ins.A], prog.consts[ins.B]
			if x.Unknown|y.Unknown != 0 {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = cmpBool(!(x.Bits < y.Bits))
			}
			pc++

		// --- compound expressions ----------------------------------------
		case opTernBranch:
			c := regs[ins.A]
			var mode uint64
			switch {
			case !c.IsFullyKnown():
				mode = 2
			case c.IsTrue():
				mode = 1
			}
			regs[ins.B] = Value{Bits: mode}
			if mode == 0 {
				pc = int(ins.C)
			} else {
				pc++
			}

		case opTernMid:
			if regs[ins.B].Bits == 1 {
				pc = int(ins.C)
			} else {
				pc++
			}

		case opTernEnd:
			if regs[ins.B].Bits == 2 {
				regs[ins.A] = AllX(max(regs[ins.A].Width, regs[ins.C].Width))
			} else {
				regs[ins.A] = regs[ins.C]
			}
			pc++

		case opConcatZero:
			regs[ins.A] = Value{}
			pc++

		case opConcatAcc:
			v := regs[ins.B]
			out := regs[ins.A]
			if out.Width+v.Width > 64 {
				w := concatWidth(&evaluator{sim: s}, prog.concats[ins.C])
				return fail(ins, fmt.Errorf("verilog: concatenation width %d exceeds 64", w))
			}
			m := maskFor(v.Width)
			out.Bits = out.Bits<<uint(v.Width) | v.Bits&m
			out.Unknown = out.Unknown<<uint(v.Width) | v.Unknown&m
			out.Width += v.Width
			regs[ins.A] = out
			pc++

		case opRepCheck:
			if !regs[ins.A].IsFullyKnown() {
				return fail(ins, fmt.Errorf("replication count is unknown"))
			}
			pc++

		case opReplicate:
			cnt := regs[ins.B]
			x := regs[ins.C]
			k := int(cnt.Uint())
			if k <= 0 || x.Width <= 0 || k > 64/x.Width {
				return fail(ins, fmt.Errorf("replication {%d{...}} of width %d unsupported", k, x.Width))
			}
			m := maskFor(x.Width)
			var out Value
			for i := 0; i < k; i++ {
				out.Bits = out.Bits<<uint(x.Width) | x.Bits&m
				out.Unknown = out.Unknown<<uint(x.Width) | x.Unknown&m
				out.Width += x.Width
			}
			regs[ins.A] = out
			pc++

		case opBitSel:
			x, idx := regs[ins.A], regs[ins.B]
			if !idx.IsFullyKnown() {
				regs[ins.A] = AllX(1)
			} else if i := int(idx.Uint()); i < 0 || i >= x.Width {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = x.Bit(i)
			}
			pc++

		case opBitSelK:
			x := regs[ins.A]
			if i := int(ins.C); i < 0 || i >= x.Width {
				regs[ins.A] = AllX(1)
			} else {
				regs[ins.A] = x.Bit(i)
			}
			pc++

		case opPartSelK:
			x := regs[ins.A]
			w := int(ins.D)
			m := maskFor(w)
			regs[ins.A] = Value{
				Bits:    (x.Bits >> uint(ins.C)) & m,
				Unknown: (x.Unknown >> uint(ins.C)) & m,
				Width:   w,
			}
			pc++

		case opPartSel:
			msbV, lsbV := regs[ins.B], regs[ins.C]
			if !msbV.IsFullyKnown() || !lsbV.IsFullyKnown() {
				return fail(ins, fmt.Errorf("part-select bounds are unknown at line %d", ins.D))
			}
			msb, lsb := int(msbV.Uint()), int(lsbV.Uint())
			if msb < lsb || msb-lsb+1 > 64 {
				return fail(ins, fmt.Errorf("bad part-select [%d:%d] at line %d", msb, lsb, ins.D))
			}
			x := regs[ins.A]
			w := msb - lsb + 1
			m := maskFor(w)
			regs[ins.A] = Value{
				Bits:    (x.Bits >> uint(lsb)) & m,
				Unknown: (x.Unknown >> uint(lsb)) & m,
				Width:   w,
			}
			pc++

		// --- stores -----------------------------------------------------
		case opStoreSig, opStoreSigNB:
			w := int(ins.C)
			v := regs[ins.A].Resize(w)
			sig := SignalID(ins.B)
			s.probeLine = ins.Line // probe attribution; dead store when off
			if ins.Op == opStoreSigNB {
				s.nba = append(s.nba, nbaUpdate{sig: sig, mask: maskFor(w), value: v, line: ins.Line})
			} else {
				// C is always the declared width, so this is a full-width
				// word-0 store: the specialized commit applies.
				s.commitFull(sig, s.design.wordOffset[sig], v)
			}
			pc++

		case opStoreMem, opStoreMemNB:
			idx := regs[ins.C]
			if idx.IsFullyKnown() {
				i := int(idx.Uint())
				w := int(ins.D)
				v := regs[ins.A].Resize(w)
				sig := SignalID(ins.B)
				s.probeLine = ins.Line
				if ins.Op == opStoreMemNB {
					s.nba = append(s.nba, nbaUpdate{sig: sig, word: i, mask: maskFor(w), value: v, line: ins.Line})
				} else {
					s.commitWrite(sig, i, maskFor(w), v)
				}
			}
			pc++

		case opStoreBit, opStoreBitNB:
			idx := regs[ins.C]
			if idx.IsFullyKnown() {
				i := int(idx.Uint())
				w := int(ins.D)
				if i >= 0 && i < w {
					v := regs[ins.A]
					shifted := Value{Bits: (v.Bits & 1) << uint(i), Unknown: (v.Unknown & 1) << uint(i), Width: w}
					sig := SignalID(ins.B)
					s.probeLine = ins.Line
					if ins.Op == opStoreBitNB {
						s.nba = append(s.nba, nbaUpdate{sig: sig, mask: uint64(1) << uint(i), value: shifted, line: ins.Line})
					} else {
						s.commitWrite(sig, 0, uint64(1)<<uint(i), shifted)
					}
				}
			}
			pc++

		case opStorePartK, opStorePartKNB:
			lsb, w := int(ins.C), int(ins.D)
			sig := s.design.Signals[ins.B]
			v := regs[ins.A]
			mask := maskFor(w) << uint(lsb)
			shifted := Value{
				Bits:    (v.Bits & maskFor(w)) << uint(lsb),
				Unknown: (v.Unknown & maskFor(w)) << uint(lsb),
				Width:   sig.Width,
			}
			s.probeLine = ins.Line
			if ins.Op == opStorePartKNB {
				s.nba = append(s.nba, nbaUpdate{sig: sig.ID, mask: mask, value: shifted, line: ins.Line})
			} else {
				s.commitWrite(sig.ID, 0, mask, shifted)
			}
			pc++

		case opStorePart, opStorePartNB:
			// The tree kernel never required known bounds on the write
			// side: Uint() of a partially-unknown bound folds the X bits
			// away. Kept bit-for-bit.
			msb, lsb := int(regs[ins.C].Uint()), int(regs[ins.D].Uint())
			sig := s.design.Signals[ins.B]
			if msb < lsb || lsb < 0 || msb >= sig.Width {
				return fail(ins, fmt.Errorf("part-select [%d:%d] out of range for %q", msb, lsb, sig.Name))
			}
			w := msb - lsb + 1
			v := regs[ins.A]
			mask := maskFor(w) << uint(lsb)
			shifted := Value{
				Bits:    (v.Bits & maskFor(w)) << uint(lsb),
				Unknown: (v.Unknown & maskFor(w)) << uint(lsb),
				Width:   sig.Width,
			}
			s.probeLine = ins.Line
			if ins.Op == opStorePartNB {
				s.nba = append(s.nba, nbaUpdate{sig: sig.ID, mask: mask, value: shifted, line: ins.Line})
			} else {
				s.commitWrite(sig.ID, 0, mask, shifted)
			}
			pc++

		case opSlice:
			src := regs[ins.B]
			m := maskFor(int(ins.D))
			regs[ins.A] = Value{
				Bits:    (src.Bits >> uint(ins.C)) & m,
				Unknown: (src.Unknown >> uint(ins.C)) & m,
				Width:   int(ins.D),
			}
			pc++

		// --- suspension points and loops --------------------------------
		case opDelay:
			amt := regs[ins.A]
			if !amt.IsFullyKnown() {
				return fail(ins, fmt.Errorf("delay amount is unknown"))
			}
			d := amt.Uint()
			if d == 0 {
				d = 1 // #0 rounds up: the subset has no inactive region
			}
			r.pc = pc + 1
			s.schedule(r, s.now+d)
			return vmSuspend, nil

		case opWaitEvent:
			r.await(prog.sens[ins.A])
			r.pc = pc + 1
			return vmSuspend, nil

		case opWaitArm:
			r.await(prog.sens[ins.A])
			r.pc = int(ins.B)
			return vmSuspend, nil

		case opRepeatInit:
			cnt := regs[ins.A]
			if !cnt.IsFullyKnown() {
				return fail(ins, fmt.Errorf("repeat count is unknown"))
			}
			regs[ins.B] = Value{Bits: cnt.Uint()}
			pc++

		case opRepeatLoop:
			if regs[ins.A].Bits == 0 {
				pc = int(ins.B)
			} else {
				regs[ins.A].Bits--
				pc++
			}

		// --- system tasks -----------------------------------------------
		case opDisplay:
			r.renderDisplay(&prog.disp[ins.A], regs)
			pc++

		case opCheck:
			s.checks++
			if !regs[ins.A].IsTrue() {
				s.failures++
				if s.out.Len() < maxSimOutput {
					b := appendCheckFailed(r.scratch[:0], s.now, ins.Line)
					b = append(b, '\n')
					s.out.Write(b)
					r.scratch = b[:0]
				}
			}
			pc++

		case opCheckEq:
			a, b := regs[ins.A], regs[ins.B]
			s.checks++
			w := max(a.Width, b.Width)
			ra, rb := a.Resize(w), b.Resize(w)
			if !ra.Equal(rb) {
				s.failures++
				if s.out.Len() < maxSimOutput {
					buf := appendCheckFailed(r.scratch[:0], s.now, ins.Line)
					buf = append(buf, ": got "...)
					buf = ra.appendString(buf)
					buf = append(buf, ", want "...)
					buf = rb.appendString(buf)
					buf = append(buf, '\n')
					s.out.Write(buf)
					r.scratch = buf[:0]
				}
			}
			pc++

		default:
			return vmErr, fmt.Errorf("verilog: corrupt bytecode at pc %d (op %d)", pc, ins.Op)
		}
	}
}

// maxSimOutput caps a run's printed output; later prints are dropped.
const maxSimOutput = 1 << 20

// caseMatch compares a case subject with one label; casez treats unknown
// label bits as wildcards.
func caseMatch(subj, label Value, casez bool) bool {
	w := max(subj.Width, label.Width)
	s, l := subj.Resize(w), label.Resize(w)
	if casez {
		care := ^l.Unknown & maskFor(w)
		return (s.Bits^l.Bits)&care&^s.Unknown == 0 && s.Unknown&care == 0
	}
	return s.Equal(l)
}

// appendCheckFailed appends the shared "CHECK FAILED at time T (line L)"
// prefix; the allocation-free replacement for the old Fprintf, which
// dominated runs of failing candidates.
func appendCheckFailed(b []byte, now uint64, line int32) []byte {
	b = append(b, "CHECK FAILED at time "...)
	b = strconv.AppendUint(b, now, 10)
	b = append(b, " (line "...)
	b = strconv.AppendInt(b, int64(line), 10)
	b = append(b, ')')
	return b
}

// renderDisplay renders a compiled $display into the simulator output,
// reusing the runner's scratch buffer so steady-state printing never
// allocates. An $error/$fatal also counts a failure, output cap or not.
func (r *runner) renderDisplay(d *dispDesc, regs []Value) {
	s := r.sim
	b := r.scratch[:0]
	if d.isErr {
		s.failures++
		b = append(b, "ERROR at time "...)
		b = strconv.AppendUint(b, s.now, 10)
		b = append(b, ": "...)
	}
	for i := range d.segs {
		seg := &d.segs[i]
		switch {
		case seg.verb == 'm':
			b = append(b, r.proc.name...)
		case seg.reg >= 0:
			v := regs[seg.reg]
			switch seg.verb {
			case 'o':
				if v.IsFullyKnown() {
					b = strconv.AppendUint(b, v.Uint(), 8)
				} else {
					b = append(b, 'x')
				}
			case 'c':
				b = append(b, byte(v.Uint()))
			default:
				b = appendRadix(b, v, seg.verb)
			}
		default:
			b = append(b, seg.lit...)
		}
	}
	if s.out.Len() < maxSimOutput {
		s.out.Write(b)
		if !d.noEOL {
			s.out.WriteByte('\n')
		}
	}
	r.scratch = b[:0]
}
