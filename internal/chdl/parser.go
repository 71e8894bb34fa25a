package chdl

import (
	"fmt"
	"strings"
)

// ParseError is a positioned C syntax error.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("C syntax error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

var typeKeywords = map[string]bool{
	"int": true, "unsigned": true, "long": true, "char": true, "void": true,
	"bool": true, "float": true, "double": true, "short": true, "signed": true,
	"const": true, "static": true, "inline": true, "size_t": true, "uint32_t": true,
	"int32_t": true, "uint64_t": true, "int64_t": true, "uint8_t": true, "int8_t": true,
	"uint16_t": true, "int16_t": true,
}

// maxDepth bounds how deep a program nests, and with it the recursion
// of the parser and of every pass that walks the tree it builds. A level
// is a statement inside a statement, an assignment, conditional, unary
// or postfix operand inside an expression, or one more operator in a
// chain of binary operators; a parenthesised expression costs three
// (assignment, conditional and unary). Deeper input is a parse error
// rather than a stack overflow.
const maxDepth = 1000

type cParser struct {
	toks  []tok
	pos   int
	depth int
}

// ParseC parses a C translation unit in the supported subset.
func ParseC(src string) (*Program, error) {
	toks, err := lexC(src)
	if err != nil {
		return nil, err
	}
	p := &cParser{toks: toks}
	prog := &Program{Source: src}
	for !p.atEOF() {
		if p.cur().kind == tPragma {
			prog.Pragmas = append(prog.Pragmas, parsePragma(p.next()))
			continue
		}
		if !p.atTypeStart() {
			return nil, p.errf("expected declaration, got %q", p.cur().text)
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		nameTok := p.cur()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.at("(") {
			fn, err := p.parseFuncRest(typ, name, nameTok.line)
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, fn)
			continue
		}
		decls, err := p.parseVarRest(typ, name, nameTok.line)
		if err != nil {
			return nil, err
		}
		prog.Globals = append(prog.Globals, decls...)
	}
	if len(prog.Funcs) == 0 {
		return nil, &ParseError{1, 1, "no function definitions in translation unit"}
	}
	return prog, nil
}

func (p *cParser) cur() tok    { return p.toks[p.pos] }
func (p *cParser) atEOF() bool { return p.cur().kind == tEOF }

func (p *cParser) next() tok {
	t := p.cur()
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *cParser) at(s string) bool {
	t := p.cur()
	return (t.kind == tPunct || t.kind == tIdent) && t.text == s
}

func (p *cParser) accept(s string) bool {
	if p.at(s) {
		p.next()
		return true
	}
	return false
}

func (p *cParser) expect(s string) error {
	if !p.accept(s) {
		return p.errf("expected %q, got %q", s, p.cur().text)
	}
	return nil
}

func (p *cParser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.next()
	return t.text, nil
}

func (p *cParser) errf(format string, args ...any) error {
	t := p.cur()
	return &ParseError{t.line, t.col, fmt.Sprintf(format, args...)}
}

// enter opens one level of nesting, failing at maxDepth; the caller
// closes it with p.leave.
func (p *cParser) enter() error {
	if p.depth == maxDepth {
		return p.errf("nesting deeper than %d levels", maxDepth)
	}
	p.depth++
	return nil
}

func (p *cParser) leave() { p.depth-- }

func (p *cParser) atTypeStart() bool {
	t := p.cur()
	return t.kind == tIdent && typeKeywords[t.text]
}

// parseType parses a type specifier plus pointer stars.
func (p *cParser) parseType() (*Type, error) {
	for p.accept("const") || p.accept("static") || p.accept("inline") || p.accept("signed") {
	}
	t := p.cur()
	if t.kind != tIdent {
		return nil, p.errf("expected type, got %q", t.text)
	}
	var base *Type
	switch t.text {
	case "int", "int32_t", "short", "int16_t", "int8_t":
		p.next()
		base = &Type{Kind: KindInt}
	case "unsigned", "size_t", "uint32_t", "uint16_t", "uint8_t":
		p.next()
		p.accept("int")
		p.accept("long") // "unsigned long"
		if t.text == "unsigned" {
			base = &Type{Kind: KindUInt}
		} else {
			base = &Type{Kind: KindUInt}
		}
	case "long", "int64_t":
		p.next()
		p.accept("long")
		p.accept("int")
		base = &Type{Kind: KindLong}
	case "uint64_t":
		p.next()
		base = &Type{Kind: KindULong}
	case "char":
		p.next()
		base = &Type{Kind: KindChar}
	case "bool":
		p.next()
		base = &Type{Kind: KindBool}
	case "void":
		p.next()
		base = &Type{Kind: KindVoid}
	case "float", "double":
		p.next()
		base = &Type{Kind: KindFloat}
	default:
		return nil, p.errf("unknown type %q", t.text)
	}
	for p.accept("*") {
		p.accept("const")
		base = &Type{Kind: KindPtr, Elem: base}
	}
	return base, nil
}

// parseFuncRest parses a function after "type name".
func (p *cParser) parseFuncRest(ret *Type, name string, line int) (*FuncDecl, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	fn := &FuncDecl{Name: name, Ret: ret, Line: line}
	if !p.at(")") && !(p.at("void") && p.toks[p.pos+1].text == ")") {
		for {
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			pl := p.cur().line
			pname, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			typ, err = p.parseArraySuffix(typ)
			if err != nil {
				return nil, err
			}
			fn.Params = append(fn.Params, &VarDecl{Name: pname, Type: typ, Line: pl})
			if !p.accept(",") {
				break
			}
		}
	} else {
		p.accept("void")
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	// Function-scope pragmas appear right after the opening brace; the
	// statement parser attaches those to the body, and we lift
	// leading ones onto the function.
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	for len(body.Stmts) > 0 {
		ps, ok := body.Stmts[0].(*PragmaStmt)
		if !ok {
			break
		}
		fn.Pragmas = append(fn.Pragmas, ps.P)
		body.Stmts = body.Stmts[1:]
	}
	fn.Body = body
	return fn, nil
}

// parseArraySuffix parses zero or more [N] suffixes.
func (p *cParser) parseArraySuffix(base *Type) (*Type, error) {
	var dims []int
	for p.accept("[") {
		if p.accept("]") {
			dims = append(dims, -1)
			continue
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		n := -1
		if lit, ok := e.(*IntLit); ok {
			n = int(lit.Val)
		}
		dims = append(dims, n)
		if err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	for i := len(dims) - 1; i >= 0; i-- {
		base = &Type{Kind: KindArray, Elem: base, ArrayLen: dims[i]}
	}
	return base, nil
}

// parseVarRest parses the remainder of a variable declaration list after
// "type name".
func (p *cParser) parseVarRest(typ *Type, name string, line int) ([]*VarDecl, error) {
	var out []*VarDecl
	for {
		vt, err := p.parseArraySuffix(typ)
		if err != nil {
			return nil, err
		}
		d := &VarDecl{Name: name, Type: vt, Line: line}
		if p.accept("=") {
			if p.at("{") {
				p.next()
				for !p.at("}") {
					e, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					d.InitList = append(d.InitList, e)
					if !p.accept(",") {
						break
					}
				}
				if err := p.expect("}"); err != nil {
					return nil, err
				}
			} else {
				e, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				d.Init = e
			}
		}
		out = append(out, d)
		if !p.accept(",") {
			break
		}
		// Next declarator may carry its own stars.
		nt := typ
		for p.accept("*") {
			nt = &Type{Kind: KindPtr, Elem: nt}
		}
		line = p.cur().line
		name, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
		typ, _ = nt, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return out, nil
}

// parsePragma splits "#pragma HLS pipeline II=1" into structured form.
func parsePragma(t tok) *Pragma {
	pr := &Pragma{Raw: t.text, Args: map[string]string{}, Line: t.line}
	fields := strings.Fields(t.text)
	if len(fields) == 0 {
		return pr
	}
	i := 0
	if strings.EqualFold(fields[0], "HLS") {
		i = 1
	}
	if i < len(fields) {
		pr.Directive = strings.ToLower(fields[i])
		i++
	}
	for ; i < len(fields); i++ {
		kv := strings.SplitN(fields[i], "=", 2)
		key := strings.ToLower(kv[0])
		if len(kv) == 2 {
			pr.Args[key] = kv[1]
		} else {
			pr.Args[key] = ""
		}
	}
	return pr
}

// --- statements ---------------------------------------------------------

func (p *cParser) parseBlock() (*BlockStmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	blk := &BlockStmt{}
	for !p.at("}") {
		if p.atEOF() {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	p.next()
	return blk, nil
}

func (p *cParser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case t.kind == tPragma:
		pr := parsePragma(p.next())
		// Attach loop pragmas to the following loop statement.
		if p.at("for") || p.at("while") {
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			switch loop := s.(type) {
			case *ForStmt:
				loop.Pragmas = append(loop.Pragmas, pr)
			case *WhileStmt:
				loop.Pragmas = append(loop.Pragmas, pr)
			}
			return s, nil
		}
		return &PragmaStmt{P: pr}, nil

	case p.at("{"):
		return p.parseBlock()

	case p.at("if"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Cond: cond, Then: then, Line: t.line}
		if p.accept("else") {
			st.Else, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return st, nil

	case p.at("for"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		st := &ForStmt{Line: t.line}
		if !p.at(";") {
			if p.atTypeStart() {
				ds, err := p.parseDeclStmt()
				if err != nil {
					return nil, err
				}
				st.Init = ds
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				st.Init = &ExprStmt{X: e, Line: t.line}
				if err := p.expect(";"); err != nil {
					return nil, err
				}
			}
		} else {
			p.next()
		}
		if !p.at(";") {
			c, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Cond = c
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		if !p.at(")") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Post = e
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Body = body
		st.Pragmas = append(st.Pragmas, liftLeadingPragmas(body)...)
		return st, nil

	case p.at("while"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Pragmas: liftLeadingPragmas(body), Line: t.line}, nil

	case p.at("do"):
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expect("while"); err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &DoStmt{Body: body, Cond: cond, Line: t.line}, nil

	case p.at("return"):
		p.next()
		st := &ReturnStmt{Line: t.line}
		if !p.at(";") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.X = e
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return st, nil

	case p.at("break"):
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &BreakStmt{Line: t.line}, nil

	case p.at("continue"):
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{Line: t.line}, nil

	case p.at(";"):
		p.next()
		return &BlockStmt{}, nil

	case p.atTypeStart():
		return p.parseDeclStmt()

	default:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ExprStmt{X: e, Line: t.line}, nil
	}
}

// parseDeclStmt parses "type declarator[, declarator]* ;".
func (p *cParser) parseDeclStmt() (*DeclStmt, error) {
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	line := p.cur().line
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	decls, err := p.parseVarRest(typ, name, line)
	if err != nil {
		return nil, err
	}
	return &DeclStmt{Decls: decls}, nil
}

// --- expressions ---------------------------------------------------------

// parseExpr parses a full expression including comma-free assignment.
func (p *cParser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"<<=": true, ">>=": true, "&=": true, "|=": true, "^=": true,
}

func (p *cParser) parseAssignExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	lhs, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == tPunct && assignOps[t.text] {
		p.next()
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{Op: t.text, LHS: lhs, RHS: rhs, Line: t.line}, nil
	}
	return lhs, nil
}

func (p *cParser) parseCond() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	cond, err := p.parseBin(0)
	if err != nil {
		return nil, err
	}
	if p.at("?") {
		line := p.cur().line
		p.next()
		then, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		els, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		return &CondExpr{Cond: cond, Then: then, Else: els, Line: line}, nil
	}
	return cond, nil
}

var cPrec = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *cParser) parseBin(level int) (Expr, error) {
	if level >= len(cPrec) {
		return p.parseUnary()
	}
	lhs, err := p.parseBin(level + 1)
	if err != nil {
		return nil, err
	}
	base := p.depth
	for {
		t := p.cur()
		matched := ""
		if t.kind == tPunct {
			for _, op := range cPrec[level] {
				if t.text == op {
					matched = op
					break
				}
			}
		}
		if matched == "" {
			p.depth = base
			return lhs, nil
		}
		// The chain so far becomes the left operand, one level deeper.
		if err := p.enter(); err != nil {
			return nil, err
		}
		p.next()
		rhs, err := p.parseBin(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinExpr{Op: matched, X: lhs, Y: rhs, Line: t.line}
	}
}

func (p *cParser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if t.kind == tPunct {
		switch t.text {
		case "-", "!", "~", "*", "&", "+":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if t.text == "+" {
				return x, nil
			}
			return &UnExpr{Op: t.text, X: x, Line: t.line}, nil
		case "++", "--":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &UnExpr{Op: t.text, X: x, Line: t.line}, nil
		case "(":
			// Cast or parenthesized expression.
			save := p.pos
			p.next()
			if p.atTypeStart() {
				typ, err := p.parseType()
				if err == nil && p.at(")") {
					p.next()
					x, err := p.parseUnary()
					if err != nil {
						return nil, err
					}
					return &CastExpr{To: typ, X: x, Line: t.line}, nil
				}
			}
			p.pos = save
		}
	}
	if t.kind == tIdent && t.text == "sizeof" {
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var typ *Type
		if p.atTypeStart() {
			var err error
			typ, err = p.parseType()
			if err != nil {
				return nil, err
			}
		} else {
			// sizeof(expr): consume the expression, treat as int.
			if _, err := p.parseExpr(); err != nil {
				return nil, err
			}
			typ = &Type{Kind: KindInt}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &SizeofExpr{To: typ, Line: t.line}, nil
	}
	return p.parsePostfixC()
}

func (p *cParser) parsePostfixC() (Expr, error) {
	e, err := p.parsePrimaryC()
	if err != nil {
		return nil, err
	}
	base := p.depth
	for p.at("[") || p.at("++") || p.at("--") {
		// The expression so far becomes the operand, one level deeper.
		if err := p.enter(); err != nil {
			return nil, err
		}
		t := p.next()
		if t.text != "[" {
			e = &PostfixExpr{Op: t.text, X: e, Line: t.line}
			continue
		}
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		e = &IndexExpr{X: e, Idx: idx, Line: t.line}
	}
	p.depth = base
	return e, nil
}

func (p *cParser) parsePrimaryC() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tNumber:
		p.next()
		v, err := parseCInt(t.text)
		if err != nil {
			return nil, &ParseError{t.line, t.col, fmt.Sprintf("bad number %q", t.text)}
		}
		return &IntLit{Val: v, Line: t.line}, nil
	case tChar:
		p.next()
		return &IntLit{Val: int64(t.text[0]), Line: t.line}, nil
	case tString:
		p.next()
		return &StrLit{Val: t.text, Line: t.line}, nil
	case tIdent:
		p.next()
		if p.at("(") {
			p.next()
			call := &CallExpr{Name: t.text, Line: t.line}
			for !p.at(")") {
				a, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		switch t.text {
		case "true":
			return &IntLit{Val: 1, Line: t.line}, nil
		case "false", "NULL", "nullptr":
			return &IntLit{Val: 0, Line: t.line}, nil
		}
		return &VarRef{Name: t.text, Line: t.line}, nil
	default:
		if p.at("(") {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected token %q in expression", t.text)
	}
}

// liftLeadingPragmas removes leading PragmaStmt nodes from a loop body and
// returns them; Vitis-style loop pragmas appear as the first statements
// inside the loop braces.
func liftLeadingPragmas(body Stmt) []*Pragma {
	blk, ok := body.(*BlockStmt)
	if !ok {
		return nil
	}
	var out []*Pragma
	for len(blk.Stmts) > 0 {
		ps, ok := blk.Stmts[0].(*PragmaStmt)
		if !ok {
			break
		}
		out = append(out, ps.P)
		blk.Stmts = blk.Stmts[1:]
	}
	return out
}
