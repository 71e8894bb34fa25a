package chdl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// RuntimeError is a positioned C execution error.
type RuntimeError struct {
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("C runtime error at line %d: %s", e.Line, e.Msg)
}

// ErrStepLimit reports that execution exceeded the configured step budget.
var ErrStepLimit = errors.New("chdl: step limit exceeded")

// Buffer is a heap or stack allocation: a run of integer cells. The subset
// models memory at cell granularity (sizeof(T) == 1 for every T), which
// keeps malloc/pointer programs executable without byte-level layout.
type Buffer struct {
	data  []int64
	freed bool
}

// Len returns the number of cells.
func (b *Buffer) Len() int { return len(b.data) }

// RtVal is a runtime value: either a scalar integer or a pointer
// (buffer + offset).
type RtVal struct {
	I     int64
	Buf   *Buffer
	Off   int
	IsPtr bool
}

// IntVal wraps a scalar.
func IntVal(v int64) RtVal { return RtVal{I: v} }

// varSlot is the storage one execution of a declaration creates. A
// scalar's cell lives in the slot, behind a one-cell Buffer, so that
// "&x" is always addressable.
type varSlot struct {
	typ  *Type
	ptr  RtVal // pointer and array variables: the pointer value itself
	buf  Buffer
	cell [1]int64
}

// isPtr reports whether the slot holds a pointer or array variable.
func (s *varSlot) isPtr() bool { return s.typ.Kind == KindPtr || s.typ.Kind == KindArray }

// newScalar makes the storage of a scalar variable holding v.
func newScalar(t *Type, v int64) *varSlot {
	s := &varSlot{typ: t}
	s.cell[0] = v
	s.buf.data = s.cell[:]
	return s
}

// Interp executes a parsed program. One Interp may run many calls; globals
// persist between calls. Any number of Interps may run one Program at
// once: they share its resolved layout and never write to it.
type Interp struct {
	lay      *layout
	maxSteps int64
	globals  []*varSlot // nil until every global is initialized
	out      strings.Builder
	scratch  []byte // printf's and puts's format and output bytes
	steps    int64
	rngState int64
	depth    int
	// Trace, when non-nil, receives (line, varName, value) triples for
	// instrumented variables; the discrepancy tester's spectra monitoring
	// hooks in here.
	Trace func(line int, name string, v int64)
	// TraceVars selects which variables to trace (nil = none).
	TraceVars map[string]bool
	// TraceAll traces every variable regardless of TraceVars — the
	// cross-level debugger's statement-level C trace (internal/xdebug).
	TraceAll bool
	// BranchCount records taken-branch counts by line for spectra.
	BranchCount map[int]int64
}

const maxCallDepth = 256

// maxSteps bounds the statements and expressions one Interp executes.
const maxSteps = 20_000_000

// NewInterp prepares an interpreter and initializes globals.
func NewInterp(prog *Program) (*Interp, error) {
	return newInterp(prog, maxSteps)
}

// newInterp is NewInterp under a step budget of the caller's choosing.
func newInterp(prog *Program, budget int64) (*Interp, error) {
	in := &Interp{
		lay:         prog.resolved(),
		maxSteps:    budget,
		rngState:    1442695040888963407, // until srand() reseeds rand()
		BranchCount: map[int]int64{},
	}
	// Globals initialize in a frame of their own, whose slots then
	// become the globals.
	fr := &frame{in: in, slots: make([]*varSlot, in.lay.nglobals)}
	for _, g := range in.lay.globals {
		if err := fr.declare(g); err != nil {
			return nil, err
		}
	}
	in.globals = fr.slots
	return in, nil
}

// Output returns everything printf produced so far.
func (in *Interp) Output() string { return in.out.String() }

// Steps returns the number of steps consumed so far.
func (in *Interp) Steps() int64 { return in.steps }

// Call invokes a function by name with scalar/pointer arguments.
func (in *Interp) Call(name string, args ...RtVal) (RtVal, error) {
	for _, fn := range in.lay.funcs {
		if fn.d.Name == name {
			return in.call(fn, args)
		}
	}
	return RtVal{}, &RuntimeError{Msg: fmt.Sprintf("undefined function %q", name)}
}

// call runs a resolved function in a fresh frame.
func (in *Interp) call(fn *cfunc, args []RtVal) (RtVal, error) {
	d := fn.d
	if len(args) != len(d.Params) {
		return RtVal{}, &RuntimeError{Line: d.Line,
			Msg: fmt.Sprintf("%s expects %d arguments, got %d", d.Name, len(d.Params), len(args))}
	}
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > maxCallDepth {
		return RtVal{}, &RuntimeError{Line: d.Line, Msg: fmt.Sprintf("call depth exceeds %d (runaway recursion?)", maxCallDepth)}
	}
	fr := &frame{in: in, slots: make([]*varSlot, fn.nslots)}
	for i, prm := range d.Params {
		switch prm.Type.Kind {
		case KindPtr, KindArray:
			fr.slots[fn.params[i]] = &varSlot{typ: prm.Type, ptr: args[i]}
		default:
			fr.slots[fn.params[i]] = newScalar(prm.Type, truncType(args[i].I, prm.Type))
		}
	}
	ctrl, err := fr.exec(fn.body)
	if err != nil {
		return RtVal{}, err
	}
	if ctrl == ctrlReturn {
		return fr.ret, nil
	}
	return RtVal{}, nil
}

// CallInts invokes a function with integer arguments and returns its
// integer result; the common case for kernels.
func (in *Interp) CallInts(name string, args ...int64) (int64, error) {
	var small [8]RtVal // up to eight arguments convert without allocating
	vals := small[:0]
	for _, a := range args {
		vals = append(vals, IntVal(a))
	}
	r, err := in.Call(name, vals...)
	return r.I, err
}

// NewBuffer allocates an argument buffer (for array parameters).
func NewBuffer(vals []int64) RtVal {
	data := make([]int64, len(vals))
	copy(data, vals)
	return RtVal{Buf: &Buffer{data: data}, IsPtr: true}
}

// BufferData returns a copy of a pointer value's underlying cells.
func BufferData(v RtVal) []int64 {
	if v.Buf == nil {
		return nil
	}
	out := make([]int64, len(v.Buf.data))
	copy(out, v.Buf.data)
	return out
}

// --- frames and control flow --------------------------------------------

type ctrlKind int

const (
	ctrlNone ctrlKind = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// frame is one function activation: a slot per parameter and local name
// of the function, indexed by the layout.
type frame struct {
	in    *Interp
	slots []*varSlot
	ret   RtVal
}

// lookup finds the storage a resolved reference names, or nil when the
// name is not bound here.
func (fr *frame) lookup(r *ref) *varSlot {
	for {
		switch r.kind {
		case refLocal:
			return fr.slots[r.idx]
		case refGlobal:
			if fr.in.globals == nil {
				return nil
			}
			return fr.in.globals[r.idx]
		case refMaybe:
			if s := fr.slots[r.idx]; s != nil {
				return s
			}
			r = r.alt
		default:
			return nil
		}
	}
}

func (fr *frame) step(line int) error {
	fr.in.steps++
	if fr.in.steps > fr.in.maxSteps {
		return fmt.Errorf("%w at line %d", ErrStepLimit, line)
	}
	return nil
}

// truncType wraps a 64-bit value to the storage semantics of a C type.
func truncType(v int64, t *Type) int64 {
	switch t.Kind {
	case KindChar:
		return int64(int8(v))
	case KindBool:
		if v != 0 {
			return 1
		}
		return 0
	case KindInt, KindFloat:
		return int64(int32(v))
	case KindUInt:
		return int64(uint32(v))
	default:
		return v
	}
}

// declare creates fresh storage for one execution of a declaration.
func (fr *frame) declare(rd *decl) error {
	d := rd.d
	var slot *varSlot
	switch d.Type.Kind {
	case KindArray:
		if rd.lenErr != "" {
			return &RuntimeError{Line: d.Line, Msg: rd.lenErr}
		}
		slot = &varSlot{typ: d.Type}
		slot.buf.data = make([]int64, rd.cells)
		slot.ptr = RtVal{Buf: &slot.buf, IsPtr: true}
		for i, e := range rd.list {
			v, err := fr.eval(e)
			if err != nil {
				return err
			}
			slot.buf.data[i] = v.I
		}
	case KindPtr:
		slot = &varSlot{typ: d.Type}
		if rd.init != nil {
			v, err := fr.eval(rd.init)
			if err != nil {
				return err
			}
			slot.ptr = v
		}
	default:
		var init int64
		if rd.init != nil {
			v, err := fr.eval(rd.init)
			if err != nil {
				return err
			}
			if v.IsPtr {
				return &RuntimeError{Line: d.Line, Msg: fmt.Sprintf("pointer assigned to scalar %q", d.Name)}
			}
			init = v.I
		}
		slot = newScalar(d.Type, truncType(init, d.Type))
	}
	fr.slots[rd.idx] = slot
	return nil
}

// exec runs one statement.
func (fr *frame) exec(st *stmt) (ctrlKind, error) {
	if st == nil {
		return ctrlNone, nil
	}
	switch st.kind {
	case sBlock:
		for _, i := range st.clear {
			fr.slots[i] = nil
		}
		for _, s := range st.list {
			c, err := fr.exec(s)
			if err != nil || c != ctrlNone {
				return c, err
			}
		}
		return ctrlNone, nil

	case sDecl:
		for _, rd := range st.decls {
			d := rd.d
			if err := fr.step(d.Line); err != nil {
				return ctrlNone, err
			}
			if err := fr.declare(rd); err != nil {
				return ctrlNone, err
			}
			if fr.in.Trace != nil && (fr.in.TraceAll || fr.in.TraceVars[d.Name]) {
				if s := fr.slots[rd.idx]; !s.isPtr() {
					fr.in.Trace(d.Line, d.Name, s.cell[0])
				}
			}
		}
		return ctrlNone, nil

	case sExpr:
		if err := fr.step(st.line); err != nil {
			return ctrlNone, err
		}
		_, err := fr.eval(st.x)
		return ctrlNone, err

	case sIf:
		if err := fr.step(st.line); err != nil {
			return ctrlNone, err
		}
		c, err := fr.eval(st.x)
		if err != nil {
			return ctrlNone, err
		}
		if truthy(c) {
			fr.in.BranchCount[st.line]++
			return fr.exec(st.body)
		}
		return fr.exec(st.els)

	case sFor:
		for _, i := range st.clear {
			fr.slots[i] = nil
		}
		if st.init != nil {
			if c, err := fr.exec(st.init); err != nil || c == ctrlReturn {
				return c, err
			}
		}
		for {
			if err := fr.step(st.line); err != nil {
				return ctrlNone, err
			}
			if st.x != nil {
				c, err := fr.eval(st.x)
				if err != nil {
					return ctrlNone, err
				}
				if !truthy(c) {
					return ctrlNone, nil
				}
			}
			fr.in.BranchCount[st.line]++
			c, err := fr.exec(st.body)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlReturn {
				return c, nil
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if st.post != nil {
				if _, err := fr.eval(st.post); err != nil {
					return ctrlNone, err
				}
			}
		}

	case sWhile:
		for {
			if err := fr.step(st.line); err != nil {
				return ctrlNone, err
			}
			c, err := fr.eval(st.x)
			if err != nil {
				return ctrlNone, err
			}
			if !truthy(c) {
				return ctrlNone, nil
			}
			fr.in.BranchCount[st.line]++
			k, err := fr.exec(st.body)
			if err != nil {
				return ctrlNone, err
			}
			if k == ctrlReturn {
				return k, nil
			}
			if k == ctrlBreak {
				return ctrlNone, nil
			}
		}

	case sDo:
		for {
			if err := fr.step(st.line); err != nil {
				return ctrlNone, err
			}
			k, err := fr.exec(st.body)
			if err != nil {
				return ctrlNone, err
			}
			if k == ctrlReturn {
				return k, nil
			}
			if k == ctrlBreak {
				return ctrlNone, nil
			}
			c, err := fr.eval(st.x)
			if err != nil {
				return ctrlNone, err
			}
			if !truthy(c) {
				return ctrlNone, nil
			}
		}

	case sReturn:
		if err := fr.step(st.line); err != nil {
			return ctrlNone, err
		}
		if st.x != nil {
			v, err := fr.eval(st.x)
			if err != nil {
				return ctrlNone, err
			}
			fr.ret = v
		}
		return ctrlReturn, nil

	case sBreak:
		return ctrlBreak, nil
	case sContinue:
		return ctrlContinue, nil
	case sNop:
		return ctrlNone, nil
	default:
		return ctrlNone, &RuntimeError{Msg: st.bad}
	}
}

func truthy(v RtVal) bool {
	if v.IsPtr {
		return v.Buf != nil
	}
	return v.I != 0
}

// --- expression evaluation ----------------------------------------------

func undefinedVar(n *node) error {
	return &RuntimeError{Line: n.line, Msg: fmt.Sprintf("undefined variable %q", n.text)}
}

// lvalue locates the storage cell an expression designates.
func (fr *frame) lvalue(n *node) (*Buffer, int, *Type, error) {
	switch n.kind {
	case nVar:
		s := fr.lookup(&n.ref)
		if s == nil {
			return nil, 0, nil, undefinedVar(n)
		}
		if s.isPtr() {
			return nil, 0, nil, &RuntimeError{Line: n.line, Msg: fmt.Sprintf("%q is a pointer; assign through an index or use plain assignment", n.text)}
		}
		return &s.buf, 0, s.typ, nil

	case nIndex:
		base, err := fr.eval(n.x)
		if err != nil {
			return nil, 0, nil, err
		}
		if !base.IsPtr || base.Buf == nil {
			return nil, 0, nil, &RuntimeError{Line: n.line, Msg: "indexing a non-pointer value"}
		}
		idx, err := fr.eval(n.y)
		if err != nil {
			return nil, 0, nil, err
		}
		off := base.Off + int(idx.I)
		if base.Buf.freed {
			return nil, 0, nil, &RuntimeError{Line: n.line, Msg: "use after free"}
		}
		if off < 0 || off >= len(base.Buf.data) {
			return nil, 0, nil, &RuntimeError{Line: n.line, Msg: fmt.Sprintf("index %d out of bounds (length %d)", off, len(base.Buf.data))}
		}
		return base.Buf, off, fr.elemType(n.x), nil

	case nUnary:
		if n.op == opDeref {
			ptr, err := fr.eval(n.x)
			if err != nil {
				return nil, 0, nil, err
			}
			if !ptr.IsPtr || ptr.Buf == nil {
				return nil, 0, nil, &RuntimeError{Line: n.line, Msg: "dereferencing a non-pointer value"}
			}
			if ptr.Buf.freed {
				return nil, 0, nil, &RuntimeError{Line: n.line, Msg: "use after free"}
			}
			if ptr.Off < 0 || ptr.Off >= len(ptr.Buf.data) {
				return nil, 0, nil, &RuntimeError{Line: n.line, Msg: "pointer dereference out of bounds"}
			}
			return ptr.Buf, ptr.Off, nil, nil
		}
	}
	return nil, 0, nil, &RuntimeError{Msg: fmt.Sprintf("expression %T is not assignable", n.src)}
}

// elemType gives the element type of an indexed variable (for store
// truncation); nil for any other indexed expression.
func (fr *frame) elemType(base *node) *Type {
	if base.kind == nVar {
		if s := fr.lookup(&base.ref); s != nil && s.typ.Elem != nil {
			return s.typ.Elem
		}
	}
	return nil
}

// assignTo stores a value into an lvalue, applying type truncation and
// firing instrumentation hooks.
func (fr *frame) assignTo(lhs *node, v RtVal, line int) (RtVal, error) {
	var (
		buf *Buffer
		off int
		typ *Type
	)
	if lhs.kind == nVar {
		s := fr.lookup(&lhs.ref)
		if s == nil {
			return RtVal{}, undefinedVar(lhs)
		}
		if s.isPtr() {
			// Pointer variable assignment replaces the pointer value.
			s.ptr = v
			return v, nil
		}
		buf, typ = &s.buf, s.typ
	} else {
		var err error
		if buf, off, typ, err = fr.lvalue(lhs); err != nil {
			return RtVal{}, err
		}
	}
	if v.IsPtr {
		return RtVal{}, &RuntimeError{Line: line, Msg: "storing a pointer into a scalar cell"}
	}
	stored := v.I
	if typ != nil {
		stored = truncType(stored, typ)
	}
	buf.data[off] = stored
	if in := fr.in; in.Trace != nil {
		if lhs.kind == nVar {
			if in.TraceAll || in.TraceVars[lhs.text] {
				in.Trace(line, lhs.text, stored)
			}
		} else if lhs.kind == nIndex && lhs.x.kind == nVar && (in.TraceAll || in.TraceVars[lhs.x.text]) {
			in.Trace(line, lhs.x.text, stored)
		}
	}
	return RtVal{I: stored}, nil
}

// eval computes an expression value. Every evaluation is one step.
func (fr *frame) eval(n *node) (RtVal, error) {
	if err := fr.step(n.line); err != nil {
		return RtVal{}, err
	}
	switch n.kind {
	case nLit:
		return IntVal(n.val), nil

	case nStr:
		// Strings become cell buffers (one char per cell, NUL-terminated).
		data := make([]int64, len(n.text)+1)
		for i := 0; i < len(n.text); i++ {
			data[i] = int64(n.text[i])
		}
		return RtVal{Buf: &Buffer{data: data}, IsPtr: true}, nil

	case nVar:
		s := fr.lookup(&n.ref)
		if s == nil {
			return RtVal{}, undefinedVar(n)
		}
		if s.isPtr() {
			return s.ptr, nil
		}
		return IntVal(s.cell[0]), nil

	case nAssign:
		v, err := fr.eval(n.y)
		if err != nil {
			return RtVal{}, err
		}
		return fr.assignTo(n.x, v, n.line)

	case nCompound:
		cur, err := fr.eval(n.x)
		if err != nil {
			return RtVal{}, err
		}
		rhs, err := fr.eval(n.y)
		if err != nil {
			return RtVal{}, err
		}
		if cur.IsPtr { // p += k
			if n.op != opAdd && n.op != opSub {
				return RtVal{}, &RuntimeError{Line: n.line, Msg: "unsupported pointer compound assignment"}
			}
			delta := int(rhs.I)
			if n.op == opSub {
				delta = -delta
			}
			nv := RtVal{Buf: cur.Buf, Off: cur.Off + delta, IsPtr: true}
			return fr.assignTo(n.x, nv, n.line)
		}
		res, err := applyCBinary(n, cur, rhs)
		if err != nil {
			return RtVal{}, err
		}
		return fr.assignTo(n.x, res, n.line)

	case nBin:
		// Short-circuit logicals first.
		if n.op == opLAnd || n.op == opLOr {
			x, err := fr.eval(n.x)
			if err != nil {
				return RtVal{}, err
			}
			if n.op == opLAnd && !truthy(x) {
				return IntVal(0), nil
			}
			if n.op == opLOr && truthy(x) {
				return IntVal(1), nil
			}
			y, err := fr.eval(n.y)
			if err != nil {
				return RtVal{}, err
			}
			if truthy(y) {
				return IntVal(1), nil
			}
			return IntVal(0), nil
		}
		x, err := fr.eval(n.x)
		if err != nil {
			return RtVal{}, err
		}
		y, err := fr.eval(n.y)
		if err != nil {
			return RtVal{}, err
		}
		return applyCBinary(n, x, y)

	case nUnary:
		switch n.op {
		case opDeref:
			buf, off, _, err := fr.lvalue(n)
			if err != nil {
				return RtVal{}, err
			}
			return IntVal(buf.data[off]), nil
		case opAddr:
			switch n.x.kind {
			case nVar:
				s := fr.lookup(&n.x.ref)
				if s == nil {
					return RtVal{}, &RuntimeError{Line: n.line, Msg: fmt.Sprintf("undefined variable %q", n.x.text)}
				}
				if s.isPtr() {
					return s.ptr, nil
				}
				return RtVal{Buf: &s.buf, IsPtr: true}, nil
			case nIndex:
				buf, off, _, err := fr.lvalue(n.x)
				if err != nil {
					return RtVal{}, err
				}
				return RtVal{Buf: buf, Off: off, IsPtr: true}, nil
			default:
				return RtVal{}, &RuntimeError{Line: n.line, Msg: "unsupported address-of target"}
			}
		case opInc, opDec:
			cur, err := fr.eval(n.x)
			if err != nil {
				return RtVal{}, err
			}
			if cur.IsPtr {
				d := 1
				if n.op == opDec {
					d = -1
				}
				nv := RtVal{Buf: cur.Buf, Off: cur.Off + d, IsPtr: true}
				return fr.assignTo(n.x, nv, n.line)
			}
			d := int64(1)
			if n.op == opDec {
				d = -1
			}
			return fr.assignTo(n.x, IntVal(cur.I+d), n.line)
		}
		x, err := fr.eval(n.x)
		if err != nil {
			return RtVal{}, err
		}
		switch n.op {
		case opNeg:
			return IntVal(-x.I), nil
		case opNot:
			if truthy(x) {
				return IntVal(0), nil
			}
			return IntVal(1), nil
		case opBitNot:
			return IntVal(^x.I), nil
		default:
			return RtVal{}, &RuntimeError{Line: n.line, Msg: fmt.Sprintf("unsupported unary %q", n.text)}
		}

	case nPostfix:
		cur, err := fr.eval(n.x)
		if err != nil {
			return RtVal{}, err
		}
		if cur.IsPtr {
			d := 1
			if n.op == opDec {
				d = -1
			}
			if _, err := fr.assignTo(n.x, RtVal{Buf: cur.Buf, Off: cur.Off + d, IsPtr: true}, n.line); err != nil {
				return RtVal{}, err
			}
			return cur, nil
		}
		d := int64(1)
		if n.op == opDec {
			d = -1
		}
		if _, err := fr.assignTo(n.x, IntVal(cur.I+d), n.line); err != nil {
			return RtVal{}, err
		}
		return cur, nil

	case nCond:
		c, err := fr.eval(n.x)
		if err != nil {
			return RtVal{}, err
		}
		if truthy(c) {
			return fr.eval(n.y)
		}
		return fr.eval(n.z)

	case nIndex:
		buf, off, _, err := fr.lvalue(n)
		if err != nil {
			return RtVal{}, err
		}
		return IntVal(buf.data[off]), nil

	case nCall:
		return fr.call(n)

	case nCast:
		v, err := fr.eval(n.x)
		if err != nil {
			return RtVal{}, err
		}
		if n.to.Kind == KindPtr {
			return v, nil // pointer casts are free at cell granularity
		}
		if v.IsPtr {
			return RtVal{}, &RuntimeError{Line: n.line, Msg: "casting a pointer to a scalar"}
		}
		return IntVal(truncType(v.I, n.to)), nil

	default:
		return RtVal{}, &RuntimeError{Msg: n.text}
	}
}

// applyCBinary evaluates n's arithmetic/comparison operator on 64-bit
// values with C truncate-toward-zero division. Pointer comparisons
// compare offsets.
func applyCBinary(n *node, x, y RtVal) (RtVal, error) {
	if x.IsPtr || y.IsPtr {
		switch n.op {
		case opAdd:
			if x.IsPtr && !y.IsPtr {
				return RtVal{Buf: x.Buf, Off: x.Off + int(y.I), IsPtr: true}, nil
			}
			if y.IsPtr && !x.IsPtr {
				return RtVal{Buf: y.Buf, Off: y.Off + int(x.I), IsPtr: true}, nil
			}
		case opSub:
			if x.IsPtr && y.IsPtr {
				return IntVal(int64(x.Off - y.Off)), nil
			}
			if x.IsPtr {
				return RtVal{Buf: x.Buf, Off: x.Off - int(y.I), IsPtr: true}, nil
			}
		case opEq, opNe, opLt, opLe, opGt, opGe:
			xo, yo := int64(x.Off), int64(y.Off)
			if x.Buf != y.Buf {
				xo, yo = 0, 1 // distinct allocations: unequal, stable order
			}
			return cmpInt(n.op, xo, yo), nil
		}
		return RtVal{}, &RuntimeError{Line: n.line, Msg: fmt.Sprintf("unsupported pointer operation %q", n.text)}
	}
	a, b := x.I, y.I
	switch n.op {
	case opAdd:
		return IntVal(a + b), nil
	case opSub:
		return IntVal(a - b), nil
	case opMul:
		return IntVal(a * b), nil
	case opDiv:
		if b == 0 {
			return RtVal{}, &RuntimeError{Line: n.line, Msg: "division by zero"}
		}
		if a == int64(-1)<<63 && b == -1 {
			return IntVal(a), nil
		}
		return IntVal(a / b), nil
	case opMod:
		if b == 0 {
			return RtVal{}, &RuntimeError{Line: n.line, Msg: "modulo by zero"}
		}
		if a == int64(-1)<<63 && b == -1 {
			return IntVal(0), nil
		}
		return IntVal(a % b), nil
	case opAnd:
		return IntVal(a & b), nil
	case opOr:
		return IntVal(a | b), nil
	case opXor:
		return IntVal(a ^ b), nil
	case opShl:
		return IntVal(a << (uint64(b) & 63)), nil
	case opShr:
		return IntVal(a >> (uint64(b) & 63)), nil
	case opEq, opNe, opLt, opLe, opGt, opGe:
		return cmpInt(n.op, a, b), nil
	default:
		return RtVal{}, &RuntimeError{Line: n.line, Msg: fmt.Sprintf("unsupported operator %q", n.text)}
	}
}

func cmpInt(op opcode, a, b int64) RtVal {
	var ok bool
	switch op {
	case opEq:
		ok = a == b
	case opNe:
		ok = a != b
	case opLt:
		ok = a < b
	case opLe:
		ok = a <= b
	case opGt:
		ok = a > b
	case opGe:
		ok = a >= b
	}
	if ok {
		return IntVal(1)
	}
	return IntVal(0)
}

// --- calls and builtins ---------------------------------------------------

// evalArgs evaluates a call's arguments in order.
func (fr *frame) evalArgs(n *node) ([]RtVal, error) {
	out := make([]RtVal, len(n.args))
	for i, a := range n.args {
		v, err := fr.eval(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (fr *frame) call(n *node) (RtVal, error) {
	in := fr.in
	switch n.builtin {
	case bUser:
		if n.fn == nil {
			return RtVal{}, &RuntimeError{Line: n.line, Msg: fmt.Sprintf("call to undefined function %q", n.text)}
		}
		args, err := fr.evalArgs(n)
		if err != nil {
			return RtVal{}, err
		}
		return in.call(n.fn, args)

	case bPrintf:
		return fr.printf(n)

	case bRand:
		in.rngState = in.rngState*6364136223846793005 + 1442695040888963407
		return IntVal((in.rngState >> 33) & 0x7FFFFFFF), nil

	case bExit:
		return RtVal{}, &RuntimeError{Line: n.line, Msg: "exit() called"}
	}

	args, err := fr.evalArgs(n)
	if err != nil {
		return RtVal{}, err
	}
	switch n.builtin {
	case bMalloc, bCalloc:
		cells := int64(0)
		if len(args) >= 1 {
			cells = args[0].I
		}
		if n.builtin == bCalloc && len(args) == 2 {
			cells = args[0].I * args[1].I
		}
		if cells < 0 || cells > maxCells {
			return RtVal{}, &RuntimeError{Line: n.line, Msg: fmt.Sprintf("malloc of %d cells rejected", cells)}
		}
		return RtVal{Buf: &Buffer{data: make([]int64, cells)}, IsPtr: true}, nil

	case bFree:
		if len(args) == 1 && args[0].Buf != nil {
			if args[0].Buf.freed {
				return RtVal{}, &RuntimeError{Line: n.line, Msg: "double free"}
			}
			args[0].Buf.freed = true
		}
		return RtVal{}, nil

	case bPutchar:
		if len(args) == 1 && in.out.Len() < maxCOutput {
			in.out.WriteByte(byte(args[0].I))
		}
		return IntVal(1), nil

	case bPuts:
		if len(args) == 1 && args[0].Buf != nil && in.out.Len() < maxCOutput {
			base := len(in.scratch)
			in.scratch = append(appendCString(in.scratch, args[0]), '\n')
			in.out.Write(in.scratch[base:])
			in.scratch = in.scratch[:base]
		}
		return IntVal(1), nil

	case bMemset:
		if len(args) == 0 {
			return noArgsErr(n)
		}
		if b := args[0]; len(args) == 3 && b.Buf != nil {
			for i := max(0, -b.Off); i < int(args[2].I) && b.Off+i < len(b.Buf.data); i++ {
				b.Buf.data[b.Off+i] = args[1].I
			}
		}
		return args[0], nil

	case bMemcpy:
		if len(args) == 0 {
			return noArgsErr(n)
		}
		if len(args) == 3 && args[0].Buf != nil && args[1].Buf != nil {
			dst, src := args[0], args[1]
			for i := max(0, -dst.Off, -src.Off); i < int(args[2].I); i++ {
				if dst.Off+i >= len(dst.Buf.data) || src.Off+i >= len(src.Buf.data) {
					break
				}
				dst.Buf.data[dst.Off+i] = src.Buf.data[src.Off+i]
			}
		}
		return args[0], nil

	case bAbs:
		if len(args) == 0 {
			return noArgsErr(n)
		}
		v := args[0].I
		if v < 0 {
			v = -v
		}
		return IntVal(v), nil

	case bSrand:
		if len(args) == 1 {
			in.rngState = args[0].I
		}
		return RtVal{}, nil

	default: // bAssert
		if len(args) == 1 && !truthy(args[0]) {
			return RtVal{}, &RuntimeError{Line: n.line, Msg: "assertion failed"}
		}
		return RtVal{}, nil
	}
}

// noArgsErr rejects a call of a builtin that returns or reads its first
// argument without one.
func noArgsErr(n *node) (RtVal, error) {
	return RtVal{}, &RuntimeError{Line: n.line, Msg: fmt.Sprintf("%s called without arguments", n.text)}
}

const maxCOutput = 1 << 20

// appendCString appends the NUL-terminated cell string v points at; a
// null pointer or one before the start of its buffer reads as empty.
func appendCString(b []byte, v RtVal) []byte {
	if v.Buf == nil {
		return b
	}
	for i := v.Off; i >= 0 && i < len(v.Buf.data); i++ {
		c := v.Buf.data[i]
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return b
}

// printf implements the %d/%u/%x/%c/%s/%ld/%lu/%% verbs. It formats in
// the interpreter's scratch buffer: the format string's bytes go in
// first, read before any argument is evaluated (an argument may write
// into the format buffer), and the output follows them. An argument may
// call printf itself, which appends past this call's bytes and truncates
// back to them, so this call addresses the buffer by offsets.
func (fr *frame) printf(n *node) (RtVal, error) {
	if len(n.args) == 0 {
		return IntVal(0), nil
	}
	fmtv, err := fr.eval(n.args[0])
	if err != nil {
		return RtVal{}, err
	}
	if !fmtv.IsPtr {
		return RtVal{}, &RuntimeError{Line: n.line, Msg: "printf format must be a string"}
	}
	in := fr.in
	base := len(in.scratch)
	in.scratch = appendCString(in.scratch, fmtv)
	end := len(in.scratch)
	var argv [8]RtVal
	args := argv[:0]
	for _, a := range n.args[1:] {
		v, err := fr.eval(a)
		if err != nil {
			in.scratch = in.scratch[:base]
			return RtVal{}, err
		}
		args = append(args, v)
	}
	b := in.scratch[:end]
	ai := 0
	nextArg := func() RtVal {
		if ai < len(args) {
			v := args[ai]
			ai++
			return v
		}
		return RtVal{}
	}
	for i := base; i < end; i++ {
		c := b[i]
		if c != '%' {
			b = append(b, c)
			continue
		}
		i++
		// Skip flags/width and length modifiers.
		for i < end && (b[i] == '-' || b[i] == '0' || b[i] == ' ' ||
			(b[i] >= '0' && b[i] <= '9') || b[i] == 'l' || b[i] == 'z' || b[i] == '.') {
			i++
		}
		if i >= end {
			break
		}
		switch b[i] {
		case 'd', 'i':
			b = strconv.AppendInt(b, nextArg().I, 10)
		case 'u':
			b = strconv.AppendUint(b, uint64(nextArg().I), 10)
		case 'x':
			b = strconv.AppendUint(b, uint64(nextArg().I), 16)
		case 'c':
			b = append(b, byte(nextArg().I))
		case 's':
			if v := nextArg(); v.IsPtr {
				b = appendCString(b, v)
			}
		case 'f', 'g':
			b = append(strconv.AppendInt(b, nextArg().I, 10), ".0"...)
		case 'p':
			b = strconv.AppendInt(append(b, "ptr+"...), int64(nextArg().Off), 10)
		case '%':
			b = append(b, '%')
		default:
			b = append(b, '%', b[i])
		}
	}
	out := b[end:]
	if in.out.Len() < maxCOutput {
		in.out.Write(out)
	}
	in.scratch = b[:base]
	return IntVal(int64(len(out))), nil
}
