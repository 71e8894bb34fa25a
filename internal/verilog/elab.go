package verilog

import "fmt"

// ElabError is a positioned elaboration error (unknown module, bad width,
// unresolved name); like ParseError it becomes LLM feedback upstream, and
// it shares the same Pos type as ParseError and vlint.Diagnostic.
type ElabError struct {
	Pos Pos
	Msg string
}

func (e *ElabError) Error() string {
	return fmt.Sprintf("elaboration error at line %s: %s", e.Pos, e.Msg)
}

// SignalID indexes a flattened design signal.
type SignalID int

// Signal is one flattened net or variable of the elaborated design.
type Signal struct {
	ID    SignalID
	Name  string // hierarchical, e.g. "tb.dut.sum"
	Width int
	IsReg bool
	Words int // > 1 for memories (reg [7:0] m [0:N-1])
}

// scopeEntry resolves a local identifier: either a signal or an
// elaboration-time constant (parameter/genvar).
type scopeEntry struct {
	sig     SignalID
	isParam bool
	param   Value
}

// scope maps a module instance's local names to flattened entities.
type scope map[string]scopeEntry

// contAssign is a flattened continuous assignment.
type contAssign struct {
	lhs   Expr
	rhs   Expr
	scope scope
	reads []SignalID
	line  int
	// prog is the compiled evaluate-and-store program (bytecode.go) that
	// every evaluation of the assign runs through vmRun.
	prog *Program
}

// procKind distinguishes process flavors.
type procKind int

const (
	procAlways procKind = iota + 1
	procInitial
)

// process is a flattened behavioral process (always or initial block).
type process struct {
	kind   procKind
	sens   []SensItem // resolved against scope at activation
	star   bool
	body   Stmt
	scope  scope
	name   string
	line   int
	reads  []SignalID  // inferred sensitivity for @* blocks
	bcache *boundCache // bound-body + compiled-program memo shared across designs
	prog   *Program    // the body lowered to VM bytecode (bytecode.go)
}

// Design is a fully elaborated, flattened design ready for simulation.
type Design struct {
	Top     string
	Signals []*Signal
	assigns []*contAssign
	procs   []*process
	byName  map[string]SignalID

	// Run-time layout, computed once at elaboration and shared by every
	// Simulator over this design (the compile-once/run-many split):
	// sigAssigns[id] lists the continuous assignments that read signal id
	// (in assign order, each once however often it reads id);
	// wordOffset[id]/totalWords pack every signal's words into one
	// backing array so a fresh Simulator is a single allocation, not one
	// per signal. wordOffset has a trailing sentinel: a signal's word
	// count is the offset delta.
	sigAssigns [][]int32
	wordOffset []int32
	totalWords int

	// Register-file layout for the VM: every process's registers pack
	// into one per-run slab (procRegOff/procRegTotal) and every compiled
	// continuous assignment gets a disjoint scratch region of a
	// per-Simulator slab (caRegOff/caRegTotal — disjoint so a store's
	// propagation wave re-entering another assign's program can never
	// clobber live registers). Both are computed once here; a fresh
	// Simulator allocates two slices, not one buffer per program.
	procRegOff   []int32
	procRegTotal int
	caRegOff     []int32
	caRegTotal   int
}

// finalizeLayout computes the shared run-time layout; called once at the
// end of elaboration, after which the design is immutable. It also binds
// every process body and continuous assignment (see bind.go), so the
// simulator's hot path never resolves names through scope maps.
func (d *Design) finalizeLayout() {
	var bd binder
	for _, ca := range d.assigns {
		ca.lhs = bd.expr(ca.lhs, ca.scope)
		ca.rhs = bd.expr(ca.rhs, ca.scope)
	}
	for _, pr := range d.procs {
		pr.body = bindCached(pr.bcache, pr.body, pr.scope, &bd)
	}
	// Lower every process body and continuous assignment to VM bytecode
	// (bytecode.go). Process programs are memoized alongside their bound
	// body variant, so the testbench shared by a whole candidate batch is
	// lowered once, not once per design; the scope-equality that keys the
	// memo guarantees every SignalID a cached program mentions refers to
	// an identically-shaped signal in every design that reuses it.
	d.procRegOff = make([]int32, len(d.procs)+1)
	total := 0
	for i, pr := range d.procs {
		pr.prog = programCached(pr.bcache, pr, d)
		d.procRegOff[i] = int32(total)
		total += pr.prog.numRegs
	}
	d.procRegOff[len(d.procs)] = int32(total)
	d.procRegTotal = total
	d.caRegOff = make([]int32, len(d.assigns)+1)
	total = 0
	for i, ca := range d.assigns {
		ca.prog = lowerContAssign(ca, d)
		d.caRegOff[i] = int32(total)
		total += ca.prog.numRegs
	}
	d.caRegOff[len(d.assigns)] = int32(total)
	d.caRegTotal = total
	d.sigAssigns = make([][]int32, len(d.Signals))
	for i, ca := range d.assigns {
		for _, sig := range ca.reads {
			// One assign's entries are appended together, so a repeat
			// read of sig finds i at the end of its list.
			if l := d.sigAssigns[sig]; len(l) > 0 && l[len(l)-1] == int32(i) {
				continue
			}
			d.sigAssigns[sig] = append(d.sigAssigns[sig], int32(i))
		}
	}
	d.wordOffset = make([]int32, len(d.Signals)+1)
	total = 0
	for i, sig := range d.Signals {
		d.wordOffset[i] = int32(total)
		total += sig.Words
	}
	d.wordOffset[len(d.Signals)] = int32(total)
	d.totalWords = total
}

// SignalByName returns the flattened signal with the given hierarchical
// name (e.g. "tb.dut.sum"), or false.
func (d *Design) SignalByName(name string) (*Signal, bool) {
	id, ok := d.byName[name]
	if !ok {
		return nil, false
	}
	return d.Signals[id], true
}

// elaborator carries state while flattening.
type elaborator struct {
	file   *SourceFile
	design *Design
	depth  int
	caSlab []contAssign // slab backing for the flattened assigns
	idSlab []Ident      // slab backing for port-connection references
}

const maxElabDepth = 64

// Elaborate flattens the hierarchy under the named top module.
func Elaborate(file *SourceFile, top string) (*Design, error) {
	mod := file.FindModule(top)
	if mod == nil {
		return nil, &ElabError{Msg: fmt.Sprintf("top module %q not found", top)}
	}
	e := &elaborator{
		file:   file,
		design: &Design{Top: top, byName: map[string]SignalID{}},
	}
	if err := e.instantiate(mod, top, nil, nil); err != nil {
		return nil, err
	}
	e.design.finalizeLayout()
	return e.design, nil
}

// newSignal registers a flattened signal.
func (e *elaborator) newSignal(name string, width int, isReg bool, words int) (SignalID, error) {
	if width <= 0 || width > 64 {
		return 0, &ElabError{Msg: fmt.Sprintf("signal %q has unsupported width %d (subset: 1..64)", name, width)}
	}
	if _, dup := e.design.byName[name]; dup {
		return 0, &ElabError{Msg: fmt.Sprintf("duplicate signal %q", name)}
	}
	id := SignalID(len(e.design.Signals))
	e.design.Signals = append(e.design.Signals, &Signal{ID: id, Name: name, Width: width, IsReg: isReg, Words: words})
	e.design.byName[name] = id
	return id, nil
}

// paramScope is the constant-only view of a scope used by evalConst.
type paramScope map[string]Value

// evalConst evaluates an elaboration-time constant expression.
func evalConst(ex Expr, params paramScope) (Value, error) {
	switch n := ex.(type) {
	case *Number:
		return n.Val, nil
	case *Ident:
		if v, ok := params[n.Name]; ok {
			return v, nil
		}
		return Value{}, &ElabError{Pos: Pos{Line: n.Line}, Msg: fmt.Sprintf("identifier %q is not a constant", n.Name)}
	case *Unary:
		x, err := evalConst(n.X, params)
		if err != nil {
			return Value{}, err
		}
		return applyUnary(n.Op, x)
	case *Binary:
		x, err := evalConst(n.X, params)
		if err != nil {
			return Value{}, err
		}
		y, err := evalConst(n.Y, params)
		if err != nil {
			return Value{}, err
		}
		return applyBinary(n.Op, x, y)
	case *Ternary:
		c, err := evalConst(n.Cond, params)
		if err != nil {
			return Value{}, err
		}
		if c.IsTrue() {
			return evalConst(n.Then, params)
		}
		return evalConst(n.Else, params)
	default:
		return Value{}, &ElabError{Msg: fmt.Sprintf("unsupported constant expression %T", ex)}
	}
}

// constParams extracts the parameter-only entries of a scope.
func (s scope) constParams() paramScope {
	ps := paramScope{}
	for name, ent := range s {
		if ent.isParam {
			ps[name] = ent.param
		}
	}
	return ps
}

// instantiate flattens module mod under hierarchical path, with port
// connections conns evaluated in the parent scope parentScope (nil for top).
func (e *elaborator) instantiate(mod *Module, path string, inst *Instance, parentScope scope) error {
	e.depth++
	defer func() { e.depth-- }()
	if e.depth > maxElabDepth {
		return &ElabError{Msg: fmt.Sprintf("instantiation depth exceeds %d (recursive hierarchy?)", maxElabDepth)}
	}

	sc := scope{}

	// 1. Resolve parameters: defaults, then overrides.
	overrides := map[string]Expr{}
	if inst != nil {
		for i, ex := range inst.ParamOrder {
			nonLocal := nonLocalParams(mod)
			if i >= len(nonLocal) {
				return &ElabError{Pos: Pos{Line: inst.Line}, Msg: fmt.Sprintf("too many positional parameters for %q", mod.Name)}
			}
			overrides[nonLocal[i].Name] = ex
		}
		for name, ex := range inst.ParamNamed {
			overrides[name] = ex
		}
	}
	// ps tracks the constant-only view of sc incrementally, so the width
	// evaluations below reuse one map instead of rebuilding it per port
	// and per declaration (a measurable cost when batch-compiling
	// hundreds of candidate designs).
	ps := paramScope{}
	var parentPS paramScope
	for _, prm := range mod.Params {
		var v Value
		var err error
		if ov, ok := overrides[prm.Name]; ok && !prm.IsLocal {
			if parentPS == nil {
				parentPS = parentScope.constParams()
			}
			v, err = evalConst(ov, parentPS)
		} else {
			v, err = evalConst(prm.Default, ps)
		}
		if err != nil {
			return fmt.Errorf("parameter %s.%s: %w", mod.Name, prm.Name, err)
		}
		sc[prm.Name] = scopeEntry{isParam: true, param: v}
		ps[prm.Name] = v
	}

	// 2. Declare port signals.
	for _, port := range mod.Ports {
		if port.Dir == 0 {
			return &ElabError{Pos: Pos{Line: port.Line}, Msg: fmt.Sprintf("port %q of %q has no direction", port.Name, mod.Name)}
		}
		if port.Dir == DirInout {
			return &ElabError{Pos: Pos{Line: port.Line}, Msg: "inout ports are not supported by the subset"}
		}
		w := 1
		if port.Width != nil {
			msb, err := evalConst(port.Width, ps)
			if err != nil {
				return err
			}
			w = int(msb.Uint()) + 1
		}
		id, err := e.newSignal(path+"."+port.Name, w, port.IsReg, 1)
		if err != nil {
			return err
		}
		sc[port.Name] = scopeEntry{sig: id}
	}

	// 3. Declare body nets/regs (first pass so forward references resolve).
	for _, item := range mod.Items {
		decl, ok := item.(*NetDecl)
		if !ok {
			continue
		}
		if _, exists := sc[decl.Name]; exists {
			// Port redeclared as wire/reg in body: keep port signal but
			// honor an explicit reg flag.
			continue
		}
		w := 1
		if decl.Width != nil {
			msb, err := evalConst(decl.Width, ps)
			if err != nil {
				return err
			}
			w = int(msb.Uint()) + 1
		}
		words := 1
		if decl.ArrayHi != nil {
			hi, err := evalConst(decl.ArrayHi, ps)
			if err != nil {
				return err
			}
			words = int(hi.Uint()) + 1
			if words <= 0 || words > 1<<20 {
				return &ElabError{Pos: Pos{Line: decl.Line}, Msg: fmt.Sprintf("memory %q has unsupported word count %d", decl.Name, words)}
			}
		}
		id, err := e.newSignal(path+"."+decl.Name, w, decl.IsReg, words)
		if err != nil {
			return err
		}
		sc[decl.Name] = scopeEntry{sig: id}
	}

	// 4. Port connections become continuous assignments.
	if inst != nil {
		conns := map[string]Expr{}
		if len(inst.ConnOrder) > 0 {
			if len(inst.ConnOrder) > len(mod.Ports) {
				return &ElabError{Pos: Pos{Line: inst.Line}, Msg: fmt.Sprintf("too many positional connections for %q", mod.Name)}
			}
			for i, ex := range inst.ConnOrder {
				conns[mod.Ports[i].Name] = ex
			}
		} else {
			for name, ex := range inst.Conns {
				found := false
				for _, port := range mod.Ports {
					if port.Name == name {
						found = true
						break
					}
				}
				if !found {
					return &ElabError{Pos: Pos{Line: inst.Line}, Msg: fmt.Sprintf("module %q has no port %q", mod.Name, name)}
				}
				conns[name] = ex
			}
		}
		for _, port := range mod.Ports {
			ex, connected := conns[port.Name]
			if !connected || ex == nil {
				continue // dangling port
			}
			portRef := alloc(&e.idSlab, Ident{Name: port.Name})
			switch port.Dir {
			case DirInput:
				e.design.assigns = append(e.design.assigns, alloc(&e.caSlab, contAssign{
					lhs: portRef, rhs: scopedExpr{ex, parentScope}, scope: sc, line: inst.Line,
				}))
			case DirOutput:
				e.design.assigns = append(e.design.assigns, alloc(&e.caSlab, contAssign{
					lhs: scopedExpr{ex, parentScope}, rhs: portRef, scope: sc, line: inst.Line,
				}))
			}
		}
	}

	// 5. Remaining items.
	for _, item := range mod.Items {
		switch it := item.(type) {
		case *NetDecl:
			if it.Init != nil {
				e.design.assigns = append(e.design.assigns, alloc(&e.caSlab, contAssign{
					lhs: alloc(&e.idSlab, Ident{Name: it.Name}), rhs: it.Init, scope: sc, line: it.Line,
				}))
			}
		case *ContAssign:
			e.design.assigns = append(e.design.assigns, alloc(&e.caSlab, contAssign{lhs: it.LHS, rhs: it.RHS, scope: sc, line: it.Line}))
		case *AlwaysBlock:
			e.design.procs = append(e.design.procs, &process{
				kind: procAlways, sens: it.Sens, star: it.Star, body: it.Body, scope: sc,
				name: fmt.Sprintf("%s.always@%d", path, it.Line), line: it.Line, bcache: &it.bound,
			})
		case *InitialBlock:
			e.design.procs = append(e.design.procs, &process{
				kind: procInitial, body: it.Body, scope: sc,
				name: fmt.Sprintf("%s.initial@%d", path, it.Line), line: it.Line, bcache: &it.bound,
			})
		case *Instance:
			child := e.file.FindModule(it.ModuleName)
			if child == nil {
				return &ElabError{Pos: Pos{Line: it.Line}, Msg: fmt.Sprintf("unknown module %q", it.ModuleName)}
			}
			if err := e.instantiate(child, path+"."+it.Name, it, sc); err != nil {
				return err
			}
		}
	}

	// 6. Resolve read sets for @* processes and continuous assigns.
	for _, ca := range e.design.assigns {
		if ca.reads == nil {
			ca.reads = readSet(ca.rhs, ca.scope, nil)
			ca.reads = readSet(ca.lhs, ca.scope, ca.reads) // index exprs on LHS
		}
	}
	for _, pr := range e.design.procs {
		if pr.kind == procAlways && pr.star && pr.reads == nil {
			pr.reads = stmtReadSet(pr.body, pr.scope, nil)
		}
	}
	return nil
}

func nonLocalParams(m *Module) []*Param {
	var out []*Param
	for _, p := range m.Params {
		if !p.IsLocal {
			out = append(out, p)
		}
	}
	return out
}

// scopedExpr wraps an expression that must be evaluated in a different
// scope than its containing construct (used for port connections, which
// reference parent-scope names).
type scopedExpr struct {
	Expr  Expr
	Scope scope
}

func (scopedExpr) expr() {}

// readSet appends the signal IDs read by ex to acc.
func readSet(ex Expr, sc scope, acc []SignalID) []SignalID {
	switch n := ex.(type) {
	case nil:
		return acc
	case *Ident:
		if ent, ok := sc[n.Name]; ok && !ent.isParam {
			acc = append(acc, ent.sig)
		}
		return acc
	case *boundRef:
		return append(acc, n.sig)
	case *Number, *StringLit, *boundParam:
		return acc
	case *Unary:
		return readSet(n.X, sc, acc)
	case *Binary:
		return readSet(n.Y, sc, readSet(n.X, sc, acc))
	case *Ternary:
		return readSet(n.Else, sc, readSet(n.Then, sc, readSet(n.Cond, sc, acc)))
	case *Concat:
		for _, part := range n.Parts {
			acc = readSet(part, sc, acc)
		}
		return acc
	case *Repeat:
		return readSet(n.X, sc, readSet(n.Count, sc, acc))
	case *Index:
		return readSet(n.Idx, sc, readSet(n.X, sc, acc))
	case *PartSelect:
		return readSet(n.LSB, sc, readSet(n.MSB, sc, readSet(n.X, sc, acc)))
	case *SysFunc:
		for _, a := range n.Args {
			acc = readSet(a, sc, acc)
		}
		return acc
	case scopedExpr:
		return readSet(n.Expr, n.Scope, acc)
	default:
		return acc
	}
}

// stmtReadSet computes the inferred @* sensitivity of a statement.
func stmtReadSet(st Stmt, sc scope, acc []SignalID) []SignalID {
	switch n := st.(type) {
	case nil:
		return acc
	case *Block:
		for _, s := range n.Stmts {
			acc = stmtReadSet(s, sc, acc)
		}
		return acc
	case *Assign:
		acc = readSet(n.RHS, sc, acc)
		// Index expressions on the LHS are reads too.
		if idx, ok := n.LHS.(*Index); ok {
			acc = readSet(idx.Idx, sc, acc)
		}
		return acc
	case *IfStmt:
		return stmtReadSet(n.Else, sc, stmtReadSet(n.Then, sc, readSet(n.Cond, sc, acc)))
	case *CaseStmt:
		acc = readSet(n.Subject, sc, acc)
		for _, item := range n.Items {
			for _, e := range item.Exprs {
				acc = readSet(e, sc, acc)
			}
			acc = stmtReadSet(item.Body, sc, acc)
		}
		return acc
	case *ForStmt:
		acc = readSet(n.Cond, sc, acc)
		return stmtReadSet(n.Body, sc, acc)
	case *WhileStmt:
		return stmtReadSet(n.Body, sc, readSet(n.Cond, sc, acc))
	case *RepeatStmt:
		return stmtReadSet(n.Body, sc, readSet(n.Count, sc, acc))
	case *DelayStmt:
		return stmtReadSet(n.Body, sc, acc)
	case *EventStmt:
		return stmtReadSet(n.Body, sc, acc)
	case *SysCall:
		for _, a := range n.Args {
			acc = readSet(a, sc, acc)
		}
		return acc
	default:
		return acc
	}
}

// applyUnary evaluates a unary operator on a value.
func applyUnary(op string, x Value) (Value, error) {
	switch op {
	case "~":
		return Not(x, x.Width), nil
	case "!":
		return LogicalNot(x), nil
	case "-":
		return Sub(NewValue(0, x.Width), x, x.Width), nil
	case "&":
		return ReduceAnd(x), nil
	case "|":
		return ReduceOr(x), nil
	case "^":
		return ReduceXor(x), nil
	case "~&":
		return LogicalNot(ReduceAnd(x)), nil
	case "~|":
		return LogicalNot(ReduceOr(x)), nil
	case "~^", "^~":
		return LogicalNot(ReduceXor(x)), nil
	default:
		return Value{}, fmt.Errorf("verilog: unsupported unary operator %q", op)
	}
}

// applyBinary evaluates a binary operator. Addition widens by one bit and
// multiplication sums operand widths (capped at 64): this approximates
// Verilog's context-determined widths so that carry/overflow bits survive
// into concatenation LHSs like {cout, sum} = a + b + cin. Assignments
// truncate to the target width, preserving modular semantics.
func applyBinary(op string, x, y Value) (Value, error) {
	w := max(x.Width, y.Width)
	switch op {
	case "+":
		grown := w
		if grown < 64 {
			grown++
		}
		return Add(x.Resize(grown), y.Resize(grown), grown), nil
	case "-":
		return Sub(x.Resize(w), y.Resize(w), w), nil
	case "*":
		grown := x.Width + y.Width
		if grown > 64 {
			grown = 64
		}
		return Mul(x.Resize(grown), y.Resize(grown), grown), nil
	case "/":
		return Div(x.Resize(w), y.Resize(w), w), nil
	case "%":
		return Mod(x.Resize(w), y.Resize(w), w), nil
	case "&":
		return And(x.Resize(w), y.Resize(w), w), nil
	case "|":
		return Or(x.Resize(w), y.Resize(w), w), nil
	case "^":
		return Xor(x.Resize(w), y.Resize(w), w), nil
	case "~^", "^~":
		return Not(Xor(x.Resize(w), y.Resize(w), w), w), nil
	case "~&":
		return Not(And(x.Resize(w), y.Resize(w), w), w), nil
	case "~|":
		return Not(Or(x.Resize(w), y.Resize(w), w), w), nil
	case "<<", "<<<":
		return Shl(x, y, x.Width), nil
	case ">>", ">>>":
		return Shr(x, y, x.Width), nil
	case "==":
		return Eq(x.Resize(w), y.Resize(w)), nil
	case "!=":
		return LogicalNot(Eq(x.Resize(w), y.Resize(w))), nil
	case "===":
		return CaseEq(x.Resize(w), y.Resize(w)), nil
	case "!==":
		return LogicalNot(CaseEq(x.Resize(w), y.Resize(w))), nil
	case "<":
		return Lt(x.Resize(w), y.Resize(w)), nil
	case ">":
		return Lt(y.Resize(w), x.Resize(w)), nil
	case "<=":
		return LogicalNot(Lt(y.Resize(w), x.Resize(w))), nil
	case ">=":
		return LogicalNot(Lt(x.Resize(w), y.Resize(w))), nil
	case "&&":
		return LogicalAnd(x, y), nil
	case "||":
		return LogicalOr(x, y), nil
	default:
		return Value{}, fmt.Errorf("verilog: unsupported binary operator %q", op)
	}
}
