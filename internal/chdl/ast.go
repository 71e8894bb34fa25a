// Package chdl implements the C-subset frontend and interpreter that plays
// the role of the software toolchain in the reproduction: it parses the
// C/C++ kernels the HLS case studies operate on, executes them ("CPU
// execution" in Fig. 2/3 of the paper), and exposes the syntactic analyses
// (malloc, pointers, recursion, unbounded loops) that the HLS-repair
// framework's preprocessing stage needs.
//
// The subset covers integer C: int/unsigned/long/char scalars, fixed and
// dynamic arrays, pointers, functions with recursion, the full statement
// repertoire (if/for/while/do/return/break/continue), compound assignment,
// and the builtins malloc/free/printf/memset/abs. HLS pragmas
// (#pragma HLS ...) are parsed and attached to the AST.
package chdl

import (
	"fmt"
	"sync"
)

// TypeKind enumerates the subset's type constructors.
type TypeKind int

// Type kinds.
const (
	KindInt TypeKind = iota + 1
	KindUInt
	KindLong
	KindULong
	KindChar
	KindBool
	KindVoid
	KindPtr
	KindArray
	KindFloat // parsed and flagged; the HLS subset rejects it
)

// Type is a C type. Integer kinds carry width/signedness; Ptr and Array
// carry an element type.
type Type struct {
	Kind     TypeKind
	Elem     *Type
	ArrayLen int // -1 when the length is not a compile-time constant
}

// Width returns the bit width of an integer kind (0 otherwise).
func (t *Type) Width() int {
	switch t.Kind {
	case KindChar, KindBool:
		return 8
	case KindInt, KindUInt, KindFloat:
		return 32
	case KindLong, KindULong:
		return 64
	default:
		return 0
	}
}

// String renders the type in C syntax.
func (t *Type) String() string {
	switch t.Kind {
	case KindInt:
		return "int"
	case KindUInt:
		return "unsigned"
	case KindLong:
		return "long"
	case KindULong:
		return "unsigned long"
	case KindChar:
		return "char"
	case KindBool:
		return "bool"
	case KindVoid:
		return "void"
	case KindFloat:
		return "float"
	case KindPtr:
		return t.Elem.String() + "*"
	case KindArray:
		if t.ArrayLen >= 0 {
			return fmt.Sprintf("%s[%d]", t.Elem, t.ArrayLen)
		}
		return t.Elem.String() + "[]"
	default:
		return fmt.Sprintf("type(%d)", int(t.Kind))
	}
}

// Pragma is one "#pragma HLS ..." directive with parsed key/values.
type Pragma struct {
	// Raw is the full directive text after "#pragma".
	Raw string
	// Directive is the first word after HLS (pipeline, unroll, ...).
	Directive string
	// Args holds key=value options (value "" for bare flags).
	Args map[string]string
	Line int
}

// Program is a parsed translation unit.
type Program struct {
	Funcs   []*FuncDecl
	Globals []*VarDecl
	// Pragmas collects file-scope pragmas (function/loop pragmas are
	// attached to their statements).
	Pragmas []*Pragma
	// Source preserves the original text for diagnostics and repair.
	Source string

	// layout is the resolved form the interpreter runs, built on the
	// first NewInterp. A Program that has run is read-only: its layout
	// does not follow later edits of the tree.
	layoutOnce sync.Once
	layout     *layout
}

// FindFunc returns the function with the given name, or nil.
func (p *Program) FindFunc(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name    string
	Ret     *Type
	Params  []*VarDecl
	Body    *BlockStmt
	Pragmas []*Pragma
	Line    int
}

// VarDecl declares one variable (parameter, local or global).
type VarDecl struct {
	Name string
	Type *Type
	Init Expr // may be nil
	// InitList holds aggregate initializers: int a[3] = {1,2,3}.
	InitList []Expr
	Line     int
}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// BlockStmt is { ... }.
type BlockStmt struct {
	Stmts []Stmt
}

// DeclStmt wraps local variable declarations.
type DeclStmt struct {
	Decls []*VarDecl
}

// ExprStmt is an expression evaluated for effect.
type ExprStmt struct {
	X    Expr
	Line int
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt
	Line int
}

// ForStmt is for(init; cond; post) body. Init may be a DeclStmt or
// ExprStmt; any of the three header slots may be nil.
type ForStmt struct {
	Init    Stmt
	Cond    Expr
	Post    Expr
	Body    Stmt
	Pragmas []*Pragma
	Line    int
}

// WhileStmt is while(cond) body.
type WhileStmt struct {
	Cond    Expr
	Body    Stmt
	Pragmas []*Pragma
	Line    int
}

// DoStmt is do body while(cond).
type DoStmt struct {
	Body Stmt
	Cond Expr
	Line int
}

// ReturnStmt returns from the current function.
type ReturnStmt struct {
	X    Expr // may be nil
	Line int
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Line int }

// ContinueStmt jumps to the next loop iteration.
type ContinueStmt struct{ Line int }

// PragmaStmt is a pragma that appears in statement position and could not
// be attached to a following loop.
type PragmaStmt struct{ P *Pragma }

func (*BlockStmt) stmt()    {}
func (*DeclStmt) stmt()     {}
func (*ExprStmt) stmt()     {}
func (*IfStmt) stmt()       {}
func (*ForStmt) stmt()      {}
func (*WhileStmt) stmt()    {}
func (*DoStmt) stmt()       {}
func (*ReturnStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*PragmaStmt) stmt()   {}

// Expr is an expression node.
type Expr interface{ exprNode() }

// IntLit is an integer literal.
type IntLit struct {
	Val  int64
	Line int
}

// StrLit is a string literal (printf formats, char arrays).
type StrLit struct {
	Val  string
	Line int
}

// VarRef references a variable.
type VarRef struct {
	Name string
	Line int
}

// BinExpr is a binary operation.
type BinExpr struct {
	Op   string
	X, Y Expr
	Line int
}

// UnExpr is a unary operation: - ! ~ * & ++ -- (prefix).
type UnExpr struct {
	Op   string
	X    Expr
	Line int
}

// PostfixExpr is x++ or x--.
type PostfixExpr struct {
	Op   string // "++" or "--"
	X    Expr
	Line int
}

// AssignExpr is an assignment or compound assignment.
type AssignExpr struct {
	Op   string // "=", "+=", ...
	LHS  Expr
	RHS  Expr
	Line int
}

// CondExpr is cond ? a : b.
type CondExpr struct {
	Cond, Then, Else Expr
	Line             int
}

// IndexExpr is a[i].
type IndexExpr struct {
	X, Idx Expr
	Line   int
}

// CallExpr is f(args...). Builtins (malloc, printf, ...) are calls too.
type CallExpr struct {
	Name string
	Args []Expr
	Line int
}

// CastExpr is (type)x.
type CastExpr struct {
	To   *Type
	X    Expr
	Line int
}

// SizeofExpr is sizeof(type) or sizeof(expr); the subset resolves it to
// the byte size of the named type.
type SizeofExpr struct {
	To   *Type
	Line int
}

func (*IntLit) exprNode()      {}
func (*StrLit) exprNode()      {}
func (*VarRef) exprNode()      {}
func (*BinExpr) exprNode()     {}
func (*UnExpr) exprNode()      {}
func (*PostfixExpr) exprNode() {}
func (*AssignExpr) exprNode()  {}
func (*CondExpr) exprNode()    {}
func (*IndexExpr) exprNode()   {}
func (*CallExpr) exprNode()    {}
func (*CastExpr) exprNode()    {}
func (*SizeofExpr) exprNode()  {}
