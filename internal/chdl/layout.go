package chdl

import "fmt"

// The interpreter does not walk the AST. On first execution a Program is
// resolved once into the form below, and every Interp over the Program
// shares it read-only:
//
//   - every parameter and local gets a frame index, one per (scope, name),
//     so a frame is a slice of slots and a variable reference is an index;
//   - every global gets an index into the Interp's globals;
//   - operator strings become opcodes and calls point at their callee.
//
// Scoping: a name is bound from its declaration to the end of the
// enclosing block or for statement, and a later declaration of the same
// name in the same scope rebinds it to fresh storage. A declaration that
// is the bare body of an if, else, while, do or for binds its name in the
// enclosing scope only when it runs, so references to such a name check
// the slot at run time and fall back to the outer binding while it is
// unset.

// opcode is an operator decoded from its source text.
type opcode uint8

const (
	opNone opcode = iota // not an operator the interpreter implements
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opAnd
	opOr
	opXor
	opShl
	opShr
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opLAnd
	opLOr
	opNeg
	opNot
	opBitNot
	opDeref
	opAddr
	opInc
	opDec
)

// binaryOps decodes binary operators; any other text is opNone.
var binaryOps = map[string]opcode{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"&": opAnd, "|": opOr, "^": opXor, "<<": opShl, ">>": opShr,
	"==": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
	"&&": opLAnd, "||": opLOr,
}

// unaryOps decodes prefix operators; any other text is opNone.
var unaryOps = map[string]opcode{
	"-": opNeg, "!": opNot, "~": opBitNot, "*": opDeref, "&": opAddr, "++": opInc, "--": opDec,
}

// compoundBase gives the arithmetic operator of a compound assignment
// ("" when the assignment operator is not one).
func compoundBase(op string) string {
	switch op {
	case "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=":
		return op[:len(op)-1]
	}
	return ""
}

// refKind says where a resolved variable reference finds its slot.
type refKind uint8

const (
	refUndef  refKind = iota // no binding: "undefined variable" when run
	refLocal                 // frame slot idx
	refGlobal                // global idx, unset while globals initialize
	refMaybe                 // frame slot idx when set, else alt
)

// ref is a resolved variable reference.
type ref struct {
	kind refKind
	idx  int32
	alt  *ref
}

type nodeKind uint8

const (
	nLit nodeKind = iota
	nStr
	nVar
	nAssign   // "="
	nCompound // "+=" and friends; op is the arithmetic operator
	nBin
	nUnary
	nPostfix // op is opInc or opDec
	nCond
	nIndex
	nCall
	nCast
	nBad // an expression the interpreter cannot run; text is the error
)

// node is one resolved expression.
type node struct {
	kind nodeKind
	op   opcode
	line int
	// x, y, z are the operands: the left and right sides of an operator
	// or assignment, the base and index of a[i], the condition and arms
	// of ?:, the operand of a cast.
	x, y, z *node
	args    []*node
	val     int64
	// text is a variable's or callee's name, a string literal, an
	// operator's source text, or nBad's error.
	text    string
	ref     ref
	to      *Type   // nCast
	builtin builtin // nCall
	fn      *cfunc  // nCall of a user function; nil when undefined
	src     Expr    // the AST node, for diagnostics that name its type
}

type stmtKind uint8

const (
	sBlock stmtKind = iota
	sDecl
	sExpr
	sIf
	sFor
	sWhile
	sDo
	sReturn
	sBreak
	sContinue
	sNop
	sBad
)

// stmt is one resolved statement.
type stmt struct {
	kind stmtKind
	line int
	// x is the expression of an expression statement or return, or the
	// condition of an if or loop; post is a for statement's step.
	x, post *node
	// init is a for statement's first clause, body a loop body or the
	// then-branch of an if, els its else-branch.
	init, body, els *stmt
	list            []*stmt // block
	decls           []*decl
	// clear lists the slots of names that this block or for statement's
	// scope binds only conditionally; they are unset on entry.
	clear []int32
	bad   string // sBad: the error
}

// decl is one resolved variable declaration.
type decl struct {
	d    *VarDecl
	idx  int32
	init *node   // scalar or pointer initializer
	list []*node // array initializer
	// cells is an array's storage size; lenErr, when set, is the error
	// declaring it raises instead.
	cells  int
	lenErr string
}

// cfunc is one resolved function.
type cfunc struct {
	d      *FuncDecl
	params []int32
	nslots int
	body   *stmt
}

// layout is a Program's resolved form.
type layout struct {
	funcs    []*cfunc // parallel to Program.Funcs
	globals  []*decl  // in initialization order
	nglobals int
}

// resolved returns the Program's layout, building it on first use.
// Parse-only callers never pay for it, and concurrent interpreters over
// one Program share a single build.
func (p *Program) resolved() *layout {
	p.layoutOnce.Do(func() { p.layout = resolve(p) })
	return p.layout
}

// maxCells bounds one allocation (a malloc or an array declaration) at
// 16M cells.
const maxCells = 1 << 24

// scope is one lexical scope during resolution.
type scope struct {
	names   map[string]int32 // slot per name bound here so far
	dynamic map[string]bool  // names bound here only conditionally
	parent  *scope
}

type resolver struct {
	funcs   map[string]*cfunc // the first function of each name
	globals map[string]int32
	// inInit is set while resolving global initializers: they run in a
	// frame of their own, before any global is visible to functions.
	inInit bool
	nslots int32
}

func resolve(p *Program) *layout {
	r := &resolver{funcs: map[string]*cfunc{}, globals: map[string]int32{}}
	lay := &layout{}
	for _, f := range p.Funcs {
		cf := &cfunc{d: f}
		lay.funcs = append(lay.funcs, cf)
		if _, ok := r.funcs[f.Name]; !ok {
			r.funcs[f.Name] = cf
		}
	}
	for _, g := range p.Globals {
		if _, ok := r.globals[g.Name]; !ok {
			r.globals[g.Name] = int32(len(r.globals))
		}
	}
	lay.nglobals = len(r.globals)

	// Global initializers see the globals declared before them and
	// nothing else; their frame's slots become the globals.
	r.inInit = true
	initScope := &scope{names: map[string]int32{}}
	for _, g := range p.Globals {
		d := r.decl(g, initScope)
		d.idx = r.globals[g.Name]
		initScope.names[g.Name] = d.idx
		lay.globals = append(lay.globals, d)
	}
	r.inInit = false

	for _, cf := range lay.funcs {
		r.nslots = 0
		params := &scope{names: map[string]int32{}}
		for _, prm := range cf.d.Params {
			cf.params = append(cf.params, r.bind(params, prm.Name))
		}
		if cf.d.Body != nil {
			cf.body = r.stmt(cf.d.Body, params)
		}
		cf.nslots = int(r.nslots)
	}
	return lay
}

// bind returns the slot of name in sc, allocating it on first binding.
func (r *resolver) bind(sc *scope, name string) int32 {
	if idx, ok := sc.names[name]; ok {
		return idx
	}
	idx := r.nslots
	r.nslots++
	sc.names[name] = idx
	return idx
}

// open starts the scope of a block or for statement whose direct
// contents are stmts, allocating a slot for every name that a bare
// if/else/while/do/for body declares into it.
func (r *resolver) open(parent *scope, straight []Stmt, conditional ...Stmt) (*scope, []int32) {
	sc := &scope{names: map[string]int32{}, parent: parent}
	var clear []int32
	var visit func(s Stmt, cond bool)
	visit = func(s Stmt, cond bool) {
		switch n := s.(type) {
		case *DeclStmt:
			if !cond {
				return
			}
			for _, d := range n.Decls {
				if sc.dynamic == nil {
					sc.dynamic = map[string]bool{}
				}
				if !sc.dynamic[d.Name] {
					sc.dynamic[d.Name] = true
					clear = append(clear, r.bind(sc, d.Name))
				}
			}
		case *IfStmt:
			visit(n.Then, true)
			visit(n.Else, true)
		case *WhileStmt:
			visit(n.Body, true)
		case *DoStmt:
			visit(n.Body, true)
		}
	}
	for _, s := range straight {
		visit(s, false)
	}
	for _, s := range conditional {
		visit(s, true)
	}
	return sc, clear
}

// lookup resolves a variable name at this point of resolution.
func (r *resolver) lookup(name string, sc *scope) ref {
	var maybe []int32
	out := ref{kind: refUndef}
	for s := sc; s != nil; s = s.parent {
		idx, ok := s.names[name]
		if !ok {
			continue
		}
		if s.dynamic[name] {
			maybe = append(maybe, idx)
			continue
		}
		out = ref{kind: refLocal, idx: idx}
		break
	}
	if out.kind == refUndef && !r.inInit {
		if gi, ok := r.globals[name]; ok {
			out = ref{kind: refGlobal, idx: gi}
		}
	}
	for i := len(maybe) - 1; i >= 0; i-- {
		alt := out
		out = ref{kind: refMaybe, idx: maybe[i], alt: &alt}
	}
	return out
}

func (r *resolver) stmt(st Stmt, sc *scope) *stmt {
	switch n := st.(type) {
	case nil:
		return nil
	case *BlockStmt:
		inner, clear := r.open(sc, n.Stmts)
		out := &stmt{kind: sBlock, clear: clear}
		for _, s := range n.Stmts {
			out.list = append(out.list, r.stmt(s, inner))
		}
		return out
	case *DeclStmt:
		out := &stmt{kind: sDecl}
		for _, d := range n.Decls {
			rd := r.decl(d, sc)
			rd.idx = r.bind(sc, d.Name)
			out.decls = append(out.decls, rd)
		}
		return out
	case *ExprStmt:
		return &stmt{kind: sExpr, line: n.Line, x: r.expr(n.X, sc)}
	case *IfStmt:
		return &stmt{kind: sIf, line: n.Line, x: r.expr(n.Cond, sc),
			body: r.stmt(n.Then, sc), els: r.stmt(n.Else, sc)}
	case *ForStmt:
		var straight []Stmt
		if n.Init != nil {
			straight = append(straight, n.Init)
		}
		inner, clear := r.open(sc, straight, n.Body)
		out := &stmt{kind: sFor, line: n.Line, clear: clear}
		out.init = r.stmt(n.Init, inner)
		if n.Cond != nil {
			out.x = r.expr(n.Cond, inner)
		}
		if n.Post != nil {
			out.post = r.expr(n.Post, inner)
		}
		out.body = r.stmt(n.Body, inner)
		return out
	case *WhileStmt:
		return &stmt{kind: sWhile, line: n.Line, x: r.expr(n.Cond, sc), body: r.stmt(n.Body, sc)}
	case *DoStmt:
		body := r.stmt(n.Body, sc)
		return &stmt{kind: sDo, line: n.Line, body: body, x: r.expr(n.Cond, sc)}
	case *ReturnStmt:
		out := &stmt{kind: sReturn, line: n.Line}
		if n.X != nil {
			out.x = r.expr(n.X, sc)
		}
		return out
	case *BreakStmt:
		return &stmt{kind: sBreak}
	case *ContinueStmt:
		return &stmt{kind: sContinue}
	case *PragmaStmt:
		return &stmt{kind: sNop}
	default:
		return &stmt{kind: sBad, bad: fmt.Sprintf("unsupported statement %T", st)}
	}
}

// decl resolves a declaration's initializers in sc, before its own name
// is bound there, and sizes an array.
func (r *resolver) decl(d *VarDecl, sc *scope) *decl {
	out := &decl{d: d}
	switch d.Type.Kind {
	case KindArray:
		n := d.Type.ArrayLen
		if n < 0 && len(d.InitList) > 0 {
			n = len(d.InitList)
		}
		total := min(n, maxCells+1)
		for e := d.Type.Elem; total >= 0 && e != nil && e.Kind == KindArray; e = e.Elem {
			if e.ArrayLen < 0 {
				total = -1
			} else {
				total = mulCells(total, e.ArrayLen)
			}
		}
		switch {
		case total < 0:
			out.lenErr = fmt.Sprintf("array %q has no static length", d.Name)
		case total > maxCells:
			out.lenErr = fmt.Sprintf("array %q of more than %d cells rejected", d.Name, maxCells)
		}
		out.cells = total
		for i, e := range d.InitList {
			if i >= total {
				break
			}
			out.list = append(out.list, r.expr(e, sc))
		}
	default:
		if d.Init != nil {
			out.init = r.expr(d.Init, sc)
		}
	}
	return out
}

func (r *resolver) expr(ex Expr, sc *scope) *node {
	switch n := ex.(type) {
	case *IntLit:
		return &node{kind: nLit, line: n.Line, val: n.Val, src: ex}
	case *SizeofExpr:
		// Cell-granular memory model: every type occupies one cell.
		return &node{kind: nLit, line: n.Line, val: 1, src: ex}
	case *StrLit:
		return &node{kind: nStr, line: n.Line, text: n.Val, src: ex}
	case *VarRef:
		return &node{kind: nVar, line: n.Line, text: n.Name, ref: r.lookup(n.Name, sc), src: ex}
	case *AssignExpr:
		out := &node{kind: nAssign, line: n.Line, x: r.expr(n.LHS, sc), y: r.expr(n.RHS, sc), src: ex}
		if n.Op != "=" {
			out.kind = nCompound
			out.text = compoundBase(n.Op)
			out.op = binaryOps[out.text]
		}
		return out
	case *BinExpr:
		return &node{kind: nBin, line: n.Line, op: binaryOps[n.Op], text: n.Op,
			x: r.expr(n.X, sc), y: r.expr(n.Y, sc), src: ex}
	case *UnExpr:
		return &node{kind: nUnary, line: n.Line, op: unaryOps[n.Op], text: n.Op, x: r.expr(n.X, sc), src: ex}
	case *PostfixExpr:
		op := opInc
		if n.Op == "--" {
			op = opDec
		}
		return &node{kind: nPostfix, line: n.Line, op: op, x: r.expr(n.X, sc), src: ex}
	case *CondExpr:
		return &node{kind: nCond, line: n.Line, x: r.expr(n.Cond, sc), y: r.expr(n.Then, sc),
			z: r.expr(n.Else, sc), src: ex}
	case *IndexExpr:
		return &node{kind: nIndex, line: n.Line, x: r.expr(n.X, sc), y: r.expr(n.Idx, sc), src: ex}
	case *CallExpr:
		out := &node{kind: nCall, line: n.Line, text: n.Name, builtin: builtins[n.Name], src: ex}
		if out.builtin == bUser {
			out.fn = r.funcs[n.Name]
		}
		for _, a := range n.Args {
			out.args = append(out.args, r.expr(a, sc))
		}
		return out
	case *CastExpr:
		return &node{kind: nCast, line: n.Line, to: n.To, x: r.expr(n.X, sc), src: ex}
	default:
		return &node{kind: nBad, text: fmt.Sprintf("unsupported expression %T", ex), src: ex}
	}
}

// builtin identifies a library function the interpreter implements.
type builtin uint8

const (
	bUser builtin = iota // not a builtin: a function of the program
	bMalloc
	bCalloc
	bFree
	bPrintf
	bPutchar
	bPuts
	bMemset
	bMemcpy
	bAbs
	bRand
	bSrand
	bAssert
	bExit
)

// builtins maps library function names to the builtins implementing
// them; any other name calls a function of the program.
var builtins = map[string]builtin{
	"malloc": bMalloc, "calloc": bCalloc, "free": bFree, "printf": bPrintf,
	"putchar": bPutchar, "puts": bPuts, "memset": bMemset, "memcpy": bMemcpy,
	"abs": bAbs, "labs": bAbs, "rand": bRand, "srand": bSrand,
	"assert": bAssert, "exit": bExit,
}

// mulCells multiplies two array dimensions, saturating above maxCells.
func mulCells(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a > maxCells/b {
		return maxCells + 1
	}
	return a * b
}
