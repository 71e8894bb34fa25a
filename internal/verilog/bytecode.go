package verilog

import (
	"fmt"
	"sync"
)

// This file is the compile side of the bytecode execution engine: it
// lowers every bound process body (statements and expressions) and every
// continuous assignment into a flat []Instr program over a register-based
// VM (vm.go). The lowering runs once per design at the end of
// elaboration, so the AST becomes a compile-time-only structure on the
// hot path — the simulator executes integer opcodes whose operands
// (SignalIDs, register slots, constant-pool indices, branch targets) were
// all resolved here.
//
// Semantics are pinned to the PR 3 tree-walking kernel bit-for-bit (the
// golden fixture suite in testdata/kernel_golden.json): the lowering
// reproduces its statement-budget charging points (one opStep per
// statement entry, exactly where the old runner charged a continuation
// push), its evaluation and side-effect order (a $random inside an
// untaken ternary branch still never draws), and its diagnostics
// byte-for-byte. Every statement and expression lowers to bytecode; the
// shapes the subset rejects (a concat lvalue part without a constant
// width, a malformed $display argument list) lower to an error op that
// raises the diagnostic when the statement runs.

// OpCode selects one VM instruction.
type OpCode uint8

// The instruction set. Operand conventions are noted per opcode; A..D
// are int32 operands, Line is the enclosing statement's source line used
// to wrap runtime diagnostics ("line %d: %w") exactly like the tree
// kernel did.
const (
	opInvalid OpCode = iota

	// -- control flow ---------------------------------------------------
	opStep        // charge one statement against the shared step budget
	opJump        // pc = A
	opBranchFalse // if !regs[A].IsTrue() { pc = B }
	opBranchTrue  // if regs[A].IsTrue() { pc = B }
	opEnd         // program complete (initial body / continuous assign)
	opAlwaysWait  // always body complete: re-arm process sensitivity, pc=0
	opFinish      // $finish / $stop
	opError       // raise errs[B]; A==1 means final (never line-wrapped)
	opCaseBr      // if caseMatch(regs[A], regs[B], casez=D!=0) { pc = C }

	// -- loads ----------------------------------------------------------
	opConst   // regs[A] = consts[B]
	opLoadSig // regs[A] = current value of single-word signal B
	opLoadMem // regs[A] = word regs[C] of memory B (AllX when bad index)
	opTime    // regs[A] = $time (64-bit)
	opRandom  // regs[A] = $random (32-bit), advances the RNG
	opClog2   // regs[A] = $clog2(regs[A])

	// -- unary: regs[A] = op(regs[A]) ------------------------------------
	opNot
	opNeg
	opLogNot
	opRedAnd
	opRedOr
	opRedXor
	opRedNand
	opRedNor
	opRedXnor

	// -- binary: regs[A] = regs[A] op regs[B] ----------------------------
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opAnd
	opOr
	opXor
	opXnor
	opNand
	opNor
	opShl
	opShr
	opEq
	opNe
	opCaseEq
	opCaseNe
	opLt
	opGt
	opLe
	opGe
	opLogAnd
	opLogOr

	// -- binary with constant RHS: regs[A] = regs[A] op consts[B] --------
	// Testbench arithmetic is dominated by literal right operands
	// (i + 1, i < 1000, x & 8'hF); fusing the constant into the operator
	// saves a dispatch and a register round-trip per operation.
	opAddK
	opSubK
	opMulK
	opAndK
	opOrK
	opXorK
	opShlK
	opShrK
	opEqK
	opNeK
	opLtK
	opGtK
	opLeK
	opGeK

	// -- compound expressions -------------------------------------------
	opTernBranch // mode(regs[A]) -> slot B (0/1/2); if mode==0 { pc = C }
	opTernMid    // if slot B == 1 { pc = C } (then-value already in A)
	opTernEnd    // regs[A] = slot B == 2 ? AllX(max widths of A, C) : regs[C]
	opConcatZero // regs[A] = empty accumulator
	opConcatAcc  // regs[A] = regs[A] << width(regs[B]) | regs[B]; concats[C] diagnoses overflow
	opRepCheck   // regs[A] (a replication count) must be fully known
	opReplicate  // regs[A] = {regs[B]{regs[C]}}
	opBitSel     // regs[A] = regs[A] bit-selected by regs[B]
	opBitSelK    // regs[A] = bit C of regs[A] (constant index)
	opPartSelK   // regs[A] = regs[A][C+D-1 : C] (constant bounds, width D)
	opPartSel    // regs[A] = regs[A][regs[B]:regs[C]], D = expr line

	// -- stores (NB variants defer to the non-blocking region) -----------
	opStoreSig // signal B (width C) = regs[A]
	opStoreSigNB
	opStoreMem // memory B word regs[C] (width D) = regs[A]
	opStoreMemNB
	opStoreBit // signal B (width D) bit regs[C] = regs[A]
	opStoreBitNB
	opStorePartK // signal B [C+D-1 : C] (width D) = regs[A]
	opStorePartKNB
	opStorePart // signal B [regs[C]:regs[D]] = regs[A]
	opStorePartNB
	opSlice // regs[A] = width-D slice of regs[B] >> C (concat lvalue split)

	// -- suspension points and loops ------------------------------------
	opDelay      // suspend for regs[A] time units; resume at pc+1
	opWaitEvent  // arm sens[A]; resume at pc+1
	opWaitArm    // arm sens[A]; resume at B (re-test a wait() condition)
	opRepeatInit // slot B = repeat count regs[A] (must be fully known)
	opRepeatLoop // if slot A == 0 { pc = B } else { slot A--; pc++ }

	// -- system tasks ----------------------------------------------------
	opDisplay // render disp[A] from registers into the sim output
	opCheck   // $check(regs[A]) at Line
	opCheckEq // $check_eq(regs[A], regs[B]) at Line
)

// Instr is one VM instruction. Operand meaning is per-opcode (see the
// OpCode table); Line carries the enclosing statement's source line so
// runtime diagnostics wrap identically to the tree kernel.
type Instr struct {
	Op         OpCode
	A, B, C, D int32
	Line       int32
}

// dispSeg is one segment of a compiled $display: a literal byte run
// (reg < 0, verb 0), the enclosing process name (%m, verb 'm'), or a
// value register rendered under a verb ('d', 'h', 'b', 'o', 'c').
type dispSeg struct {
	lit  string
	reg  int32
	verb byte
}

// dispDesc is a fully compiled $display/$write/$strobe/$monitor/$error/
// $fatal call: the format string was parsed once at lowering, so the
// runtime only renders registers and copies literals.
type dispDesc struct {
	segs  []dispSeg
	noEOL bool // $write: no trailing newline
	isErr bool // $error/$fatal: count a failure, prefix "ERROR at time T: "
}

// Program is the executable form of one process body or continuous
// assignment: flat code plus the pools its instructions index into.
// Programs are immutable after lowering and safe to share across
// concurrent Simulators (and, via the bound-body memo, across designs
// that bind a body identically).
type Program struct {
	code   []Instr
	consts []Value
	errs   []error
	sens   [][]resolvedSens
	disp   []dispDesc
	// concats holds each lowered concatenation for opConcatAcc's
	// over-64-bit diagnostic, which reports the full width.
	concats []*Concat

	// numRegs is the register-file size the program needs: the deepest
	// expression-stack slot plus every persistent slot (repeat counters,
	// ternary mode cells).
	numRegs int
	// hasTiming records whether the body contains a delay/event/wait —
	// the activation-time legality check for sensitivity-free always
	// blocks, precomputed here instead of re-walking the AST per run.
	hasTiming bool
}

// slotRef marks an operand that holds a persistent-slot index and must
// be rebased past the expression stack once its final size is known.
type slotRef struct {
	pc    int
	field uint8 // 'A' or 'B'
}

// lowerer builds one Program. Its scratch buffers (code, consts, slots)
// are pooled and reused across lowerings — finish() copies exact-size
// slices into the Program — so batch compiles of many candidate designs
// do not churn the allocator with slice-growth garbage.
type lowerer struct {
	d    *Design
	sc   scope
	prog *Program

	code   []Instr // scratch; trimmed into prog.code by finish
	consts []Value // scratch; deduplicated linearly, trimmed by finish

	// Display-lowering scratch: literal segments intern into litIntern
	// (testbenches repeat the same few literals thousands of times) and
	// segment lists build in segScratch before one exact-size copy.
	litIntern  map[string]string
	segScratch []dispSeg

	maxStack int
	nslots   int
	slots    []slotRef

	// line is the source line of the statement currently being lowered;
	// expression-level error ops inherit it so runtime wrapping matches
	// the tree kernel's per-statement "line %d: %w".
	line int32

	// procedural is true for process bodies (reg-only write legality)
	// and false for continuous assignments.
	procedural bool
}

// lowererPool recycles lowerer scratch across programs and designs.
var lowererPool = sync.Pool{New: func() any { return &lowerer{} }}

// getLowerer readies a pooled lowerer for one program.
func getLowerer(d *Design, sc scope, procedural bool) *lowerer {
	lw := lowererPool.Get().(*lowerer)
	lw.d, lw.sc, lw.procedural = d, sc, procedural
	lw.prog = &Program{}
	lw.code = lw.code[:0]
	lw.consts = lw.consts[:0]
	lw.slots = lw.slots[:0]
	lw.maxStack, lw.nslots, lw.line = 0, 0, 0
	if lw.litIntern == nil {
		lw.litIntern = map[string]string{}
	}
	return lw
}

// internLit returns a canonical string for a literal byte run.
func (lw *lowerer) internLit(b []byte) string {
	if s, ok := lw.litIntern[string(b)]; ok {
		return s
	}
	s := string(b)
	lw.litIntern[s] = s
	return s
}

// putLowerer returns scratch to the pool; the built Program keeps no
// reference to it. The literal-intern memo survives across programs so
// the handful of ubiquitous literals stay warm, but it resets once it
// grows past a bound — candidate sources can carry arbitrarily many
// distinct format strings, and a pooled map must not retain them all.
func putLowerer(lw *lowerer) {
	if len(lw.litIntern) > 256 {
		lw.litIntern = map[string]string{}
	}
	lw.d, lw.sc, lw.prog = nil, nil, nil
	lowererPool.Put(lw)
}

// lowerProcess lowers a bound process body into a Program. kind/star/
// hasSens describe the owning process flavor, which fixes the program
// tail: initial bodies end, sensitivity-driven always bodies re-arm
// (opAlwaysWait), and timing-controlled always bodies jump back to their
// first budget charge.
func lowerProcess(body Stmt, sc scope, d *Design, kind procKind, star bool, hasSens bool) *Program {
	lw := getLowerer(d, sc, true)
	defer putLowerer(lw)
	lw.prog.hasTiming = containsTiming(body)
	lw.stmt(body)
	switch {
	case kind == procInitial:
		lw.emit(opEnd, 0, 0, 0, 0, 0)
	case star || hasSens:
		lw.emit(opAlwaysWait, 0, 0, 0, 0, 0)
	default:
		lw.emit(opJump, 0, 0, 0, 0, 0)
	}
	lw.finish()
	return lw.prog
}

// lowerContAssign lowers one continuous assignment (RHS evaluation plus
// the wire-legality store) into a Program with no statement charges; the
// simulator runs every assign through vmRun.
func lowerContAssign(ca *contAssign, d *Design) *Program {
	lw := getLowerer(d, ca.scope, false)
	defer putLowerer(lw)
	lw.expr(ca.rhs, 0)
	lw.write(ca.lhs, 0, false, int32(ca.line))
	lw.emit(opEnd, 0, 0, 0, 0, 0)
	lw.finish()
	return lw.prog
}

// finish rebases persistent-slot operands past the expression stack and
// copies the scratch buffers into exact-size program slices.
func (lw *lowerer) finish() {
	for _, ref := range lw.slots {
		ins := &lw.code[ref.pc]
		switch ref.field {
		case 'A':
			ins.A += int32(lw.maxStack)
		case 'B':
			ins.B += int32(lw.maxStack)
		}
	}
	lw.prog.code = append(make([]Instr, 0, len(lw.code)), lw.code...)
	if len(lw.consts) > 0 {
		lw.prog.consts = append(make([]Value, 0, len(lw.consts)), lw.consts...)
	}
	lw.prog.numRegs = lw.maxStack + lw.nslots
}

func (lw *lowerer) emit(op OpCode, a, b, c, d, line int32) int {
	lw.code = append(lw.code, Instr{Op: op, A: a, B: b, C: c, D: d, Line: line})
	return len(lw.code) - 1
}

func (lw *lowerer) here() int { return len(lw.code) }

// use records that the expression stack reaches slot dst.
func (lw *lowerer) use(dst int32) {
	if int(dst)+1 > lw.maxStack {
		lw.maxStack = int(dst) + 1
	}
}

// newSlot allocates one persistent register slot (loop counter, ternary
// mode cell), stores its index into the given operand, and records the
// operand for rebasing.
func (lw *lowerer) newSlot(pc int, field uint8) int32 {
	s := int32(lw.nslots)
	lw.nslots++
	lw.refSlot(pc, field, s)
	return s
}

// refSlot stores an already-allocated slot index into an operand and
// records it for rebasing.
func (lw *lowerer) refSlot(pc int, field uint8, s int32) {
	switch field {
	case 'A':
		lw.code[pc].A = s
	case 'B':
		lw.code[pc].B = s
	}
	lw.slots = append(lw.slots, slotRef{pc: pc, field: field})
}

// constant interns v into the constant pool. Pools are small (a handful
// of literals per statement-rich body), so a linear scan beats a map —
// no per-program map allocation, no hashing.
func (lw *lowerer) constant(v Value) int32 {
	for i, c := range lw.consts {
		if c == v {
			return int32(i)
		}
	}
	lw.consts = append(lw.consts, v)
	return int32(len(lw.consts) - 1)
}

// emitErr emits a raw error instruction: the VM wraps it with the
// enclosing statement's line at raise time ("line %d: %w"), exactly the
// wrap the tree kernel applied.
func (lw *lowerer) emitErr(format string, args ...any) {
	lw.prog.errs = append(lw.prog.errs, fmt.Errorf(format, args...))
	lw.emit(opError, 0, int32(len(lw.prog.errs)-1), 0, 0, lw.line)
}

// emitErrFinal emits a pre-formatted diagnostic that must not be
// wrapped again (it already carries its position, or never had one).
func (lw *lowerer) emitErrFinal(format string, args ...any) {
	lw.prog.errs = append(lw.prog.errs, fmt.Errorf(format, args...))
	lw.emit(opError, 1, int32(len(lw.prog.errs)-1), 0, 0, lw.line)
}

// --- statement lowering --------------------------------------------------

// stmt lowers one statement. Every lowered statement begins with an
// opStep so the shared statement budget is charged at exactly the points
// the tree kernel charged its continuation-stack pushes.
func (lw *lowerer) stmt(st Stmt) {
	switch n := st.(type) {
	case nil, *NullStmt:
		lw.emit(opStep, 0, 0, 0, 0, 0)

	case *Block:
		lw.emit(opStep, 0, 0, 0, 0, 0)
		for _, c := range n.Stmts {
			lw.stmt(c)
		}

	case *Assign:
		lw.line = int32(n.Line)
		lw.emit(opStep, 0, 0, 0, 0, lw.line)
		lw.expr(n.RHS, 0)
		lw.write(n.LHS, 0, n.NonBlocking, lw.line)

	case *IfStmt:
		lw.line = int32(n.Line)
		line := lw.line
		lw.emit(opStep, 0, 0, 0, 0, line)
		lw.expr(n.Cond, 0)
		br := lw.emit(opBranchFalse, 0, 0, 0, 0, line)
		lw.stmt(n.Then)
		if n.Else == nil {
			lw.code[br].B = int32(lw.here())
			return
		}
		j := lw.emit(opJump, 0, 0, 0, 0, line)
		lw.code[br].B = int32(lw.here())
		lw.stmt(n.Else)
		lw.code[j].A = int32(lw.here())

	case *CaseStmt:
		lw.lowerCase(n)

	case *ForStmt:
		line := int32(n.Line)
		lw.emit(opStep, 0, 0, 0, 0, line)
		lw.stmt(n.Init)
		lw.line = line
		test := lw.here()
		lw.expr(n.Cond, 0)
		br := lw.emit(opBranchFalse, 0, 0, 0, 0, line)
		lw.stmt(n.Body)
		lw.stmt(n.Step)
		lw.emit(opJump, int32(test), 0, 0, 0, line)
		lw.code[br].B = int32(lw.here())

	case *WhileStmt:
		lw.line = int32(n.Line)
		line := lw.line
		lw.emit(opStep, 0, 0, 0, 0, line)
		test := lw.here()
		lw.expr(n.Cond, 0)
		br := lw.emit(opBranchFalse, 0, 0, 0, 0, line)
		lw.stmt(n.Body)
		lw.line = line
		lw.emit(opJump, int32(test), 0, 0, 0, line)
		lw.code[br].B = int32(lw.here())

	case *RepeatStmt:
		lw.line = int32(n.Line)
		line := lw.line
		lw.emit(opStep, 0, 0, 0, 0, line)
		lw.expr(n.Count, 0)
		init := lw.emit(opRepeatInit, 0, 0, 0, 0, line)
		slot := lw.newSlot(init, 'B')
		loop := lw.emit(opRepeatLoop, 0, 0, 0, 0, line)
		lw.refSlot(loop, 'A', slot)
		lw.stmt(n.Body)
		lw.emit(opJump, int32(loop), 0, 0, 0, line)
		lw.code[loop].B = int32(lw.here())

	case *ForeverStmt:
		lw.line = int32(n.Line)
		line := lw.line
		lw.emit(opStep, 0, 0, 0, 0, line)
		if !containsTiming(n.Body) {
			lw.emitErrFinal("line %d: forever loop without timing control", n.Line)
			return
		}
		top := lw.here()
		lw.stmt(n.Body)
		lw.emit(opJump, int32(top), 0, 0, 0, line)

	case *DelayStmt:
		lw.line = int32(n.Line)
		line := lw.line
		lw.emit(opStep, 0, 0, 0, 0, line)
		lw.expr(n.Amount, 0)
		lw.emit(opDelay, 0, 0, 0, 0, line)
		if n.Body != nil {
			lw.stmt(n.Body)
		}

	case *EventStmt:
		lw.line = int32(n.Line)
		line := lw.line
		lw.emit(opStep, 0, 0, 0, 0, line)
		if n.Star {
			lw.emitErrFinal("line %d: statement-level @(*) is not supported", n.Line)
			return
		}
		sens, err := resolveSensIn(lw.sc, n.Sens)
		if err != nil {
			lw.emitErr("%s", err.Error())
			return
		}
		lw.prog.sens = append(lw.prog.sens, sens)
		lw.emit(opWaitEvent, int32(len(lw.prog.sens)-1), 0, 0, 0, line)
		if n.Body != nil {
			lw.stmt(n.Body)
		}

	case *WaitStmt:
		lw.line = int32(n.Line)
		line := lw.line
		lw.emit(opStep, 0, 0, 0, 0, line)
		test := lw.here()
		lw.expr(n.Cond, 0)
		br := lw.emit(opBranchTrue, 0, 0, 0, 0, line)
		reads := readSet(n.Cond, lw.sc, nil)
		if len(reads) == 0 {
			lw.emitErr("wait condition reads no signals")
		} else {
			sens := make([]resolvedSens, 0, len(reads))
			for _, sg := range reads {
				sens = append(sens, resolvedSens{sig: sg, edge: EdgeAny})
			}
			lw.prog.sens = append(lw.prog.sens, sens)
			lw.emit(opWaitArm, int32(len(lw.prog.sens)-1), int32(test), 0, 0, line)
		}
		lw.code[br].B = int32(lw.here())

	case *SysCall:
		lw.lowerSysCall(n)

	default:
		lw.emit(opStep, 0, 0, 0, 0, 0)
		lw.emitErrFinal("unsupported statement %T", st)
	}
}

// lowerCase lowers case/casez: subject in reg 0, each non-default item's
// labels evaluated in source order into reg 1, first match jumps to its
// body. Bodies are emitted after the scan, each ending in a jump past
// the statement — the same order the tree kernel evaluated and matched.
func (lw *lowerer) lowerCase(n *CaseStmt) {
	lw.line = int32(n.Line)
	line := lw.line
	lw.emit(opStep, 0, 0, 0, 0, line)
	lw.expr(n.Subject, 0)
	casez := int32(0)
	if n.IsCasez {
		casez = 1
	}
	type arm struct {
		brs  []int // opCaseBr indices to patch to the body
		body Stmt
	}
	var arms []arm
	var deflt *CaseItem
	for i := range n.Items {
		item := &n.Items[i]
		if item.IsDefault {
			deflt = item
			continue
		}
		a := arm{body: item.Body}
		for _, le := range item.Exprs {
			lw.line = line
			lw.expr(le, 1)
			a.brs = append(a.brs, lw.emit(opCaseBr, 0, 1, 0, casez, line))
		}
		arms = append(arms, a)
	}
	// No label matched: fall through to the default body (emitted inline
	// below) or past the statement.
	fallthroughJump := lw.emit(opJump, 0, 0, 0, 0, line)
	var endJumps []int
	if deflt != nil {
		lw.code[fallthroughJump].A = int32(lw.here())
		lw.stmt(deflt.Body)
		endJumps = append(endJumps, lw.emit(opJump, 0, 0, 0, 0, line))
	} else {
		endJumps = append(endJumps, fallthroughJump)
	}
	for _, a := range arms {
		target := int32(lw.here())
		for _, br := range a.brs {
			lw.code[br].C = target
		}
		lw.stmt(a.body)
		endJumps = append(endJumps, lw.emit(opJump, 0, 0, 0, 0, line))
	}
	end := int32(lw.here())
	for _, j := range endJumps {
		lw.code[j].A = end
	}
}

// resolveSensIn binds a sensitivity list against a scope; shared by the
// lowering pass (statement-level @ controls) and runner activation.
func resolveSensIn(sc scope, items []SensItem) ([]resolvedSens, error) {
	out := make([]resolvedSens, 0, len(items))
	for _, it := range items {
		ent, ok := sc[it.Signal]
		if !ok || ent.isParam {
			return nil, fmt.Errorf("verilog: sensitivity references unknown signal %q", it.Signal)
		}
		out = append(out, resolvedSens{sig: ent.sig, edge: it.Edge})
	}
	return out, nil
}

// --- assignment lowering -------------------------------------------------

// constBounds extracts compile-time part-select bounds: literals,
// parameters and operator trees over them (x[W-1:0]).
func (lw *lowerer) constBounds(n *PartSelect) (msb, lsb int, ok bool) {
	mv, ok1 := lw.foldConst(n.MSB)
	lv, ok2 := lw.foldConst(n.LSB)
	if !ok1 || !ok2 || !mv.IsFullyKnown() || !lv.IsFullyKnown() {
		return 0, 0, false
	}
	return int(mv.Uint()), int(lv.Uint()), true
}

// constOf returns the compile-time constant value of an expression, if
// it is one (literal or bound parameter).
func constOf(ex Expr) (Value, bool) {
	switch n := ex.(type) {
	case *Number:
		return n.Val, true
	case *boundParam:
		return n.val, true
	}
	return Value{}, false
}

// write lowers a store of regs[val] into lhs. Legality (reg vs wire) and
// structural errors are decided here; the emitted error ops sit exactly
// where the tree kernel raised them — after the RHS (and any index
// sub-expressions evaluated before the failure), so side effects match.
func (lw *lowerer) write(lhs Expr, val int32, nonBlocking bool, line int32) {
	pick := func(blocking, non OpCode) OpCode {
		if nonBlocking {
			return non
		}
		return blocking
	}
	switch n := lhs.(type) {
	case *boundRef:
		sig := lw.d.Signals[n.sig]
		if !lw.checkLegal(sig) {
			return
		}
		if sig.Words > 1 {
			lw.emitErr("memory %q assigned without an index", sig.Name)
			return
		}
		lw.emit(pick(opStoreSig, opStoreSigNB), val, int32(sig.ID), int32(sig.Width), 0, line)

	case *boundParam:
		lw.emitErr("%q is a parameter, not a signal", n.name)

	case *Ident:
		// Unresolved at bind time under the same scope the runtime would
		// use, so the runtime lookup is guaranteed to fail the same way.
		lw.emitErr("unknown identifier %q", n.Name)

	case *Index:
		ref, ok := n.X.(*boundRef)
		if !ok {
			lw.lowerBadTarget(n.X)
			return
		}
		sig := lw.d.Signals[ref.sig]
		if !lw.checkLegal(sig) {
			return
		}
		lw.expr(n.Idx, val+1)
		if sig.Words > 1 {
			lw.emit(pick(opStoreMem, opStoreMemNB), val, int32(sig.ID), val+1, int32(sig.Width), line)
			return
		}
		lw.emit(pick(opStoreBit, opStoreBitNB), val, int32(sig.ID), val+1, int32(sig.Width), line)

	case *PartSelect:
		ref, ok := n.X.(*boundRef)
		if !ok {
			lw.lowerBadTarget(n.X)
			return
		}
		sig := lw.d.Signals[ref.sig]
		if !lw.checkLegal(sig) {
			return
		}
		if msb, lsb, ok := lw.constBounds(n); ok {
			if msb < lsb || lsb < 0 || msb >= sig.Width {
				lw.emitErr("part-select [%d:%d] out of range for %q", msb, lsb, sig.Name)
				return
			}
			lw.emit(pick(opStorePartK, opStorePartKNB), val, int32(sig.ID), int32(lsb), int32(msb-lsb+1), line)
			return
		}
		lw.expr(n.MSB, val+1)
		lw.expr(n.LSB, val+2)
		lw.emit(pick(opStorePart, opStorePartNB), val, int32(sig.ID), val+1, val+2, line)

	case *Concat:
		// Split regs[val] MSB-first and store each slice; every part
		// needs a width known at compile time.
		total, bad := lw.concatWidthStatic(n)
		if bad == nil {
			lw.lowerConcatStores(n, val, total, nonBlocking, line)
			return
		}
		if ps, ok := bad.(*PartSelect); ok {
			if ref, ok := ps.X.(*boundRef); ok {
				lw.emitErr("part-select of %q in a concatenation lvalue has non-constant bounds", lw.d.Signals[ref.sig].Name)
				return
			}
		}
		lw.write(bad, val, nonBlocking, line) // no signal target: write emits its diagnostic

	default:
		lw.emitErr("invalid assignment target %T", lhs)
	}
}

// lowerBadTarget reproduces resolveSignal's diagnostics for an indexed /
// part-selected store whose base is not a plain signal.
func (lw *lowerer) lowerBadTarget(x Expr) {
	switch n := x.(type) {
	case *boundParam:
		lw.emitErr("%q is a parameter, not a signal", n.name)
	case *Ident:
		lw.emitErr("unknown identifier %q", n.Name)
	default:
		lw.emitErr("expected signal reference, got %T", x)
	}
}

// checkLegal emits the reg/wire legality diagnostic; it reports whether
// the store may proceed.
func (lw *lowerer) checkLegal(sig *Signal) bool {
	if lw.procedural && !sig.IsReg {
		lw.emitErr("procedural assignment to wire %q (declare it reg)", sig.Name)
		return false
	}
	if !lw.procedural && sig.IsReg {
		lw.emitErr("continuous assignment to reg %q (declare it wire)", sig.Name)
		return false
	}
	return true
}

// concatWidthStatic sums the static widths of a concat lvalue. It also
// returns the first (innermost) part without one, nil when every part
// has one.
func (lw *lowerer) concatWidthStatic(cc *Concat) (int, Expr) {
	total := 0
	for _, p := range cc.Parts {
		w, bad := lw.partWidthStatic(p)
		if bad != nil {
			return 0, bad
		}
		total += w
	}
	return total, nil
}

// partWidthStatic is the static width of one concat-lvalue part, or the
// part itself when it has none.
func (lw *lowerer) partWidthStatic(p Expr) (int, Expr) {
	switch n := p.(type) {
	case *boundRef:
		return lw.d.Signals[n.sig].Width, nil
	case *Index:
		if ref, ok := n.X.(*boundRef); ok {
			if sig := lw.d.Signals[ref.sig]; sig.Words > 1 {
				return sig.Width, nil
			}
			return 1, nil
		}
	case *PartSelect:
		if msb, lsb, ok := lw.constBounds(n); ok {
			return msb - lsb + 1, nil
		}
	case *Concat:
		return lw.concatWidthStatic(n)
	}
	return 0, p
}

// lowerConcatStores emits the MSB-first slice/store sequence for a
// concat lvalue whose part widths are all static.
func (lw *lowerer) lowerConcatStores(cc *Concat, val int32, total int, nonBlocking bool, line int32) {
	shift := total
	for _, p := range cc.Parts {
		w, _ := lw.partWidthStatic(p)
		shift -= w
		lw.use(val + 1)
		lw.emit(opSlice, val+1, val, int32(shift), int32(w), line)
		if sub, ok := p.(*Concat); ok {
			lw.lowerConcatStores(sub, val+1, w, nonBlocking, line)
		} else {
			lw.write(p, val+1, nonBlocking, line)
		}
	}
}

// --- system task lowering ------------------------------------------------

func (lw *lowerer) lowerSysCall(n *SysCall) {
	lw.line = int32(n.Line)
	line := lw.line
	lw.emit(opStep, 0, 0, 0, 0, line)
	switch n.Name {
	case "$display", "$write", "$strobe", "$monitor", "$error":
		lw.lowerDisplay(n)

	case "$fatal":
		lw.lowerDisplay(n)
		lw.emit(opFinish, 0, 0, 0, 0, line)

	case "$finish", "$stop":
		lw.emit(opFinish, 0, 0, 0, 0, line)

	case "$check_eq":
		if len(n.Args) < 2 {
			lw.emitErrFinal("line %d: $check_eq needs (actual, expected)", n.Line)
			return
		}
		lw.expr(n.Args[0], 0)
		lw.expr(n.Args[1], 1)
		lw.emit(opCheckEq, 0, 1, 0, 0, line)

	case "$check":
		if len(n.Args) < 1 {
			lw.emitErrFinal("line %d: $check needs a condition", n.Line)
			return
		}
		lw.expr(n.Args[0], 0)
		lw.emit(opCheck, 0, 0, 0, 0, line)

	case "$dumpfile", "$dumpvars", "$timeformat", "$readmemh", "$readmemb":
		// Accepted and ignored by the subset: the opStep above is the
		// whole statement.

	default:
		lw.emitErrFinal("line %d: unsupported system task %s", n.Line, n.Name)
	}
}

// lowerDisplay compiles a $display-family call ($error and $fatal
// included; the caller ends the run after $fatal): arguments that verbs
// consume are evaluated into consecutive registers in source order, the
// format string is parsed once here, and a single opDisplay renders the
// segment list at runtime. A call whose format/argument pairing is
// malformed lowers to the evaluations-then-error sequence the tree kernel
// produced (registers evaluated up to the failing verb, then the exact
// diagnostic); arguments no verb consumes are never evaluated, exactly
// like the tree kernel's lazy argument fetch.
func (lw *lowerer) lowerDisplay(n *SysCall) {
	line := lw.line
	desc := dispDesc{noEOL: n.Name == "$write", isErr: n.Name == "$error" || n.Name == "$fatal"}
	lw.segScratch = lw.segScratch[:0]
	emitDesc := func() {
		if len(lw.segScratch) > 0 {
			desc.segs = append(make([]dispSeg, 0, len(lw.segScratch)), lw.segScratch...)
		}
		lw.prog.disp = append(lw.prog.disp, desc)
		lw.emit(opDisplay, int32(len(lw.prog.disp)-1), 0, 0, 0, line)
	}
	seg := func(s dispSeg) { lw.segScratch = append(lw.segScratch, s) }
	if len(n.Args) == 0 {
		emitDesc()
		return
	}
	nextReg := int32(0)
	evalArg := func(a Expr) int32 {
		r := nextReg
		lw.expr(a, r)
		nextReg++
		return r
	}

	first, isFmt := n.Args[0].(*StringLit)
	if !isFmt {
		// Space-separated decimal style.
		for i, a := range n.Args {
			if i > 0 {
				seg(dispSeg{lit: " ", reg: -1})
			}
			if sl, ok := a.(*StringLit); ok {
				seg(dispSeg{lit: sl.Text, reg: -1})
				continue
			}
			seg(dispSeg{reg: evalArg(a), verb: 'd'})
		}
		emitDesc()
		return
	}

	// Format-string style: the tree kernel's verb scan, exactly.
	format := first.Text
	args := n.Args[1:]
	ai := 0
	var lit []byte
	flushLit := func() {
		if len(lit) > 0 {
			seg(dispSeg{lit: lw.internLit(lit), reg: -1})
			lit = lit[:0]
		}
	}
	// nextValReg evaluates the next argument, or lowers the exact
	// runtime diagnostic when the pairing is invalid; ok=false means the
	// statement already ended in an error op.
	nextValReg := func() (int32, bool) {
		if ai >= len(args) {
			lw.emitErr("format string %q has more verbs than arguments", format)
			return 0, false
		}
		a := args[ai]
		ai++
		if _, isStr := a.(*StringLit); isStr {
			lw.emitErr("string argument where value expected in %q", format)
			return 0, false
		}
		return evalArg(a), true
	}
	valSeg := func(verb byte) bool {
		r, ok := nextValReg()
		if !ok {
			return false
		}
		flushLit()
		seg(dispSeg{reg: r, verb: verb})
		return true
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			lit = append(lit, c)
			continue
		}
		i++
		if i >= len(format) {
			lit = append(lit, '%')
			break
		}
		for i < len(format) && format[i] >= '0' && format[i] <= '9' {
			i++
		}
		if i >= len(format) {
			break
		}
		switch f := format[i]; f {
		case '%':
			lit = append(lit, '%')
		case 'd', 'D', 't', 'T':
			if !valSeg('d') {
				return
			}
		case 'h', 'H', 'x', 'X':
			if !valSeg('h') {
				return
			}
		case 'b', 'B':
			if !valSeg('b') {
				return
			}
		case 'o', 'O':
			if !valSeg('o') {
				return
			}
		case 'c':
			if !valSeg('c') {
				return
			}
		case 's':
			if ai < len(args) {
				if sl, ok := args[ai].(*StringLit); ok {
					ai++
					lit = append(lit, sl.Text...)
					break
				}
			}
			if !valSeg('d') {
				return
			}
		case 'm':
			flushLit()
			seg(dispSeg{reg: -1, verb: 'm'})
		default:
			lit = append(lit, '%', f)
		}
	}
	flushLit()
	emitDesc()
}

// --- expression lowering -------------------------------------------------

// unaryOps maps operator text to opcodes.
var unaryOps = map[string]OpCode{
	"~": opNot, "!": opLogNot, "-": opNeg,
	"&": opRedAnd, "|": opRedOr, "^": opRedXor,
	"~&": opRedNand, "~|": opRedNor, "~^": opRedXnor, "^~": opRedXnor,
}

var binaryOps = map[string]OpCode{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"&": opAnd, "|": opOr, "^": opXor, "~^": opXnor, "^~": opXnor,
	"~&": opNand, "~|": opNor,
	"<<": opShl, "<<<": opShl, ">>": opShr, ">>>": opShr,
	"==": opEq, "!=": opNe, "===": opCaseEq, "!==": opCaseNe,
	"<": opLt, ">": opGt, "<=": opLe, ">=": opGe,
	"&&": opLogAnd, "||": opLogOr,
}

// constFusedOps maps a plain binary opcode to its constant-RHS variant.
var constFusedOps = map[OpCode]OpCode{
	opAdd: opAddK, opSub: opSubK, opMul: opMulK,
	opAnd: opAndK, opOr: opOrK, opXor: opXorK,
	opShl: opShlK, opShr: opShrK,
	opEq: opEqK, opNe: opNeK,
	opLt: opLtK, opGt: opGtK, opLe: opLeK, opGe: opGeK,
}

// expr lowers ex so its value lands in regs[dst]; scratch uses dst+1 and
// above, so values already parked below dst stay live.
func (lw *lowerer) expr(ex Expr, dst int32) {
	lw.use(dst)
	// Constant folding: literal/parameter operator trees evaluate once,
	// here, with the applyUnary/applyBinary arithmetic every evaluator
	// shares. Folding never crosses constructs with runtime effects.
	if v, ok := lw.foldConst(ex); ok {
		lw.emit(opConst, dst, lw.constant(v), 0, 0, lw.line)
		return
	}
	switch n := ex.(type) {
	case *Number:
		lw.emit(opConst, dst, lw.constant(n.Val), 0, 0, lw.line)

	case *boundParam:
		lw.emit(opConst, dst, lw.constant(n.val), 0, 0, lw.line)

	case *boundRef:
		sig := lw.d.Signals[n.sig]
		if sig.Words > 1 {
			lw.emitErr("memory %q used without an index at line %d", n.name, n.line)
			return
		}
		lw.emit(opLoadSig, dst, int32(sig.ID), 0, 0, lw.line)

	case *Ident:
		lw.emitErr("unknown identifier %q at line %d", n.Name, n.Line)

	case *StringLit:
		lw.emitErr("string literal %q used in value context", n.Text)

	case *Unary:
		op, ok := unaryOps[n.Op]
		if !ok {
			lw.emitErr("verilog: unsupported unary operator %q", n.Op)
			return
		}
		lw.expr(n.X, dst)
		lw.emit(op, dst, 0, 0, 0, lw.line)

	case *Binary:
		op, ok := binaryOps[n.Op]
		if !ok {
			lw.emitErr("verilog: unsupported binary operator %q", n.Op)
			return
		}
		lw.expr(n.X, dst)
		if kop, fusible := constFusedOps[op]; fusible {
			if y, isConst := lw.foldConst(n.Y); isConst {
				lw.emit(kop, dst, lw.constant(y), 0, 0, lw.line)
				return
			}
		}
		lw.expr(n.Y, dst+1)
		lw.emit(op, dst, dst+1, 0, 0, lw.line)

	case *Ternary:
		lw.expr(n.Cond, dst)
		br := lw.emit(opTernBranch, dst, 0, 0, 0, lw.line)
		slot := lw.newSlot(br, 'B')
		lw.expr(n.Then, dst)
		mid := lw.emit(opTernMid, dst, 0, 0, 0, lw.line)
		lw.refSlot(mid, 'B', slot)
		lw.code[br].C = int32(lw.here())
		lw.expr(n.Else, dst+1)
		end := lw.emit(opTernEnd, dst, 0, dst+1, 0, lw.line)
		lw.refSlot(end, 'B', slot)
		lw.code[mid].C = int32(lw.here())

	case *Concat:
		lw.prog.concats = append(lw.prog.concats, n)
		cc := int32(len(lw.prog.concats) - 1)
		lw.emit(opConcatZero, dst, 0, 0, 0, lw.line)
		for _, p := range n.Parts {
			lw.expr(p, dst+1)
			lw.emit(opConcatAcc, dst, dst+1, cc, 0, lw.line)
		}

	case *Repeat:
		// The count-must-be-known diagnostic fires before the replicated
		// operand evaluates, exactly like the tree evaluator's order.
		lw.expr(n.Count, dst+1)
		lw.emit(opRepCheck, dst+1, 0, 0, 0, lw.line)
		lw.expr(n.X, dst+2)
		lw.emit(opReplicate, dst, dst+1, dst+2, 0, lw.line)

	case *Index:
		if ref, ok := n.X.(*boundRef); ok && lw.d.Signals[ref.sig].Words > 1 {
			lw.expr(n.Idx, dst)
			lw.emit(opLoadMem, dst, int32(ref.sig), dst, 0, lw.line)
			return
		}
		lw.expr(n.X, dst)
		if iv, ok := lw.foldConst(n.Idx); ok && iv.IsFullyKnown() {
			// Constant bit index — the dominant shape in bit-sliced RTL
			// (sum chains, priority encoders): one opcode.
			c := int32(-1) // out of range for any width; exec yields X
			if idx := iv.Uint(); idx < 64 {
				c = int32(idx)
			}
			lw.emit(opBitSelK, dst, 0, c, 0, lw.line)
			return
		}
		lw.expr(n.Idx, dst+1)
		lw.emit(opBitSel, dst, dst+1, 0, 0, lw.line)

	case *PartSelect:
		if mv, lv, ok := lw.constBounds(n); ok {
			lw.expr(n.X, dst)
			if mv < lv || mv-lv+1 > 64 {
				lw.emitErr("bad part-select [%d:%d] at line %d", mv, lv, n.Line)
				return
			}
			// An LSB past bit 63 selects zeros, as opPartSel's shift does;
			// clamping keeps a huge LSB from wrapping in the int32 operand.
			lsb := int32(min(uint64(lv), 64))
			lw.emit(opPartSelK, dst, 0, lsb, int32(mv-lv+1), lw.line)
			return
		}
		lw.expr(n.X, dst)
		lw.expr(n.MSB, dst+1)
		lw.expr(n.LSB, dst+2)
		lw.emit(opPartSel, dst, dst+1, dst+2, int32(n.Line), lw.line)

	case *SysFunc:
		switch n.Name {
		case "$time", "$stime", "$realtime":
			lw.emit(opTime, dst, 0, 0, 0, lw.line)
		case "$random", "$urandom":
			lw.emit(opRandom, dst, 0, 0, 0, lw.line)
		case "$clog2":
			if len(n.Args) != 1 {
				lw.emitErr("$clog2 takes one argument")
				return
			}
			lw.expr(n.Args[0], dst)
			lw.emit(opClog2, dst, 0, 0, 0, lw.line)
		default:
			lw.emitErr("unsupported system function %s at line %d", n.Name, n.Line)
		}

	default:
		lw.emitErr("unsupported expression %T", ex)
	}
}

// foldConst evaluates literal/parameter-only operator trees at compile
// time. Folding never folds a ternary (its lazy-arm and unknown-cond
// semantics are runtime behavior) and stops at anything that is not a
// pure operator over constants.
func (lw *lowerer) foldConst(ex Expr) (Value, bool) {
	switch n := ex.(type) {
	case *Unary:
		x, ok := lw.foldConst(n.X)
		if !ok {
			return Value{}, false
		}
		v, err := applyUnary(n.Op, x)
		if err != nil {
			return Value{}, false
		}
		return v, true
	case *Binary:
		x, ok := lw.foldConst(n.X)
		if !ok {
			return Value{}, false
		}
		y, ok := lw.foldConst(n.Y)
		if !ok {
			return Value{}, false
		}
		v, err := applyBinary(n.Op, x, y)
		if err != nil {
			return Value{}, false
		}
		return v, true
	default:
		return constOf(ex)
	}
}
