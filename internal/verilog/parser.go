package verilog

import "fmt"

// ParseError is a positioned syntax error; the AutoChip-style loops feed
// its message back to the (simulated) LLM as compiler feedback. It
// carries the same Pos type as ElabError and vlint.Diagnostic, so compile
// errors and lint findings format identically in reports and prompts.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("syntax error at %s: %s", e.Pos, e.Msg)
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int

	// Node arena: the hottest AST node kinds are slab-allocated (same
	// alloc helper the binder uses), so parsing a multi-thousand-vector
	// unrolled testbench performs dozens of slab allocations instead of
	// one heap object per node. Nodes stay alive exactly as long as the
	// parsed file, so grouping their lifetimes is free.
	idents  []Ident
	numbers []Number
	strs    []StringLit
	assigns []Assign
	calls   []SysCall
	binarys []Binary
	unarys  []Unary
	indexes []Index
	blocks  []Block
	ifs     []IfStmt
	delays  []DelayStmt
	events  []EventStmt

	argScratch []Expr // reused per system-call argument list
	exprSlab   []Expr // exact-size backing spans for those lists
}

// Parse parses Verilog source into a SourceFile.
func Parse(src string) (*SourceFile, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	// The AST references token *text* (substrings of src), never the token
	// structs, so the slice itself is garbage the moment parsing ends —
	// recycle it instead of re-growing one per candidate score.
	defer putTokenSlice(toks)
	p := &parser{toks: toks}
	f := &SourceFile{}
	for !p.atEOF() {
		if !p.atKeyword("module") {
			return nil, p.errorf("expected 'module', got %q", p.cur().text)
		}
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		f.Modules = append(f.Modules, m)
	}
	if len(f.Modules) == 0 {
		return nil, &ParseError{Pos{Line: 1, Col: 1}, "no modules in source"}
	}
	return f, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) advance() token {
	t := p.cur()
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) atOp(op string) bool {
	t := &p.toks[p.pos]
	return t.kind == tokOp && t.text == op
}

func (p *parser) atKeyword(kw string) bool {
	t := &p.toks[p.pos]
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) acceptOp(op string) bool {
	if p.atOp(op) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errorf("expected %q, got %q", op, p.cur().text)
	}
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %q, got %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errorf("expected identifier, got %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) errorf(format string, args ...any) error {
	t := p.cur()
	return &ParseError{Pos: Pos{Line: t.line, Col: t.col}, Msg: fmt.Sprintf(format, args...)}
}

// parseModule parses one module ... endmodule.
func (p *parser) parseModule() (*Module, error) {
	line := p.cur().line
	if err := p.expectKeyword("module"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m := &Module{Name: name, Line: line}

	// Optional #(parameter ...) header.
	if p.atOp("#") {
		p.advance()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		for {
			p.acceptKeyword("parameter")
			pname, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			def, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, &Param{Name: pname, Default: def})
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}

	// Port list: ANSI or plain names.
	if p.acceptOp("(") {
		if !p.atOp(")") {
			if err := p.parsePortList(m); err != nil {
				return nil, err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(";"); err != nil {
		return nil, err
	}

	for !p.atKeyword("endmodule") {
		if p.atEOF() {
			return nil, p.errorf("unexpected end of source inside module %q", m.Name)
		}
		if err := p.parseModuleItem(m); err != nil {
			return nil, err
		}
	}
	p.advance() // endmodule
	return m, nil
}

// parsePortList handles both ANSI-style typed ports and bare name lists.
func (p *parser) parsePortList(m *Module) error {
	// Carry direction/width/reg across comma-separated groups.
	var (
		dir   PortDir
		width Expr
		isReg bool
		typed bool
	)
	for {
		if p.atKeyword("input") || p.atKeyword("output") || p.atKeyword("inout") {
			switch p.advance().text {
			case "input":
				dir = DirInput
			case "output":
				dir = DirOutput
			default:
				dir = DirInout
			}
			typed = true
			isReg = p.acceptKeyword("reg")
			p.acceptKeyword("wire")
			p.acceptKeyword("signed")
			width = nil
			if p.atOp("[") {
				var err error
				width, err = p.parseRangeMSB()
				if err != nil {
					return err
				}
			}
		}
		line := p.cur().line
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if typed {
			m.Ports = append(m.Ports, &Port{Name: name, Dir: dir, Width: width, IsReg: isReg, Line: line})
		} else {
			// Non-ANSI: record name now, direction comes from body decls.
			m.Ports = append(m.Ports, &Port{Name: name, Line: line})
		}
		if !p.acceptOp(",") {
			return nil
		}
	}
}

// parseRangeMSB parses "[msb:lsb]" and returns the MSB expression; the
// subset requires lsb == 0 which is checked at elaboration.
func (p *parser) parseRangeMSB() (Expr, error) {
	if err := p.expectOp("["); err != nil {
		return nil, err
	}
	msb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(":"); err != nil {
		return nil, err
	}
	lsb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if n, ok := lsb.(*Number); !ok || n.Val.Uint() != 0 {
		return nil, p.errorf("subset requires [msb:0] declarations")
	}
	if err := p.expectOp("]"); err != nil {
		return nil, err
	}
	return msb, nil
}

// parseModuleItem parses one item inside a module body.
func (p *parser) parseModuleItem(m *Module) error {
	t := p.cur()
	switch {
	case p.atKeyword("parameter") || p.atKeyword("localparam"):
		isLocal := t.text == "localparam"
		p.advance()
		for {
			name, err := p.expectIdent()
			if err != nil {
				return err
			}
			if err := p.expectOp("="); err != nil {
				return err
			}
			def, err := p.parseExpr()
			if err != nil {
				return err
			}
			m.Params = append(m.Params, &Param{Name: name, Default: def, IsLocal: isLocal})
			if !p.acceptOp(",") {
				break
			}
		}
		return p.expectOp(";")

	case p.atKeyword("input") || p.atKeyword("output") || p.atKeyword("inout"):
		// Non-ANSI port direction declaration in body.
		var dir PortDir
		switch p.advance().text {
		case "input":
			dir = DirInput
		case "output":
			dir = DirOutput
		default:
			dir = DirInout
		}
		isReg := p.acceptKeyword("reg")
		p.acceptKeyword("wire")
		p.acceptKeyword("signed")
		var width Expr
		if p.atOp("[") {
			var err error
			width, err = p.parseRangeMSB()
			if err != nil {
				return err
			}
		}
		for {
			name, err := p.expectIdent()
			if err != nil {
				return err
			}
			found := false
			for _, port := range m.Ports {
				if port.Name == name {
					port.Dir = dir
					port.Width = width
					port.IsReg = isReg
					found = true
					break
				}
			}
			if !found {
				return p.errorf("direction declared for %q which is not in the port list", name)
			}
			if !p.acceptOp(",") {
				break
			}
		}
		return p.expectOp(";")

	case p.atKeyword("wire") || p.atKeyword("reg") || p.atKeyword("integer"):
		kw := p.advance().text
		isReg := kw != "wire"
		p.acceptKeyword("signed")
		var width Expr
		if kw == "integer" {
			width = alloc(&p.numbers, Number{Val: NewValue(31, 32)})
		} else if p.atOp("[") {
			var err error
			width, err = p.parseRangeMSB()
			if err != nil {
				return err
			}
		}
		for {
			line := p.cur().line
			name, err := p.expectIdent()
			if err != nil {
				return err
			}
			decl := &NetDecl{Name: name, IsReg: isReg, Width: width, Line: line}
			if p.atOp("[") { // memory: reg [7:0] mem [0:255];
				p.advance()
				lo, err := p.parseExpr()
				if err != nil {
					return err
				}
				if err := p.expectOp(":"); err != nil {
					return err
				}
				hi, err := p.parseExpr()
				if err != nil {
					return err
				}
				if err := p.expectOp("]"); err != nil {
					return err
				}
				if n, ok := lo.(*Number); ok && n.Val.Uint() == 0 {
					decl.ArrayHi = hi
				} else {
					decl.ArrayHi = lo // [hi:0] form
				}
			}
			if p.acceptOp("=") {
				init, err := p.parseExpr()
				if err != nil {
					return err
				}
				decl.Init = init
			}
			m.Items = append(m.Items, decl)
			if !p.acceptOp(",") {
				break
			}
		}
		return p.expectOp(";")

	case p.atKeyword("assign"):
		p.advance()
		for {
			line := p.cur().line
			lhs, err := p.parseExpr()
			if err != nil {
				return err
			}
			if err := p.expectOp("="); err != nil {
				return err
			}
			rhs, err := p.parseExpr()
			if err != nil {
				return err
			}
			m.Items = append(m.Items, &ContAssign{LHS: lhs, RHS: rhs, Line: line})
			if !p.acceptOp(",") {
				break
			}
		}
		return p.expectOp(";")

	case p.atKeyword("always"):
		line := t.line
		p.advance()
		blk := &AlwaysBlock{Line: line}
		if p.atOp("@") {
			p.advance()
			sens, star, err := p.parseSensList()
			if err != nil {
				return err
			}
			blk.Sens, blk.Star = sens, star
		}
		body, err := p.parseStmt()
		if err != nil {
			return err
		}
		blk.Body = body
		m.Items = append(m.Items, blk)
		return nil

	case p.atKeyword("initial"):
		line := t.line
		p.advance()
		body, err := p.parseStmt()
		if err != nil {
			return err
		}
		m.Items = append(m.Items, &InitialBlock{Body: body, Line: line})
		return nil

	case t.kind == tokIdent:
		return p.parseInstance(m)

	default:
		return p.errorf("unexpected token %q in module body", t.text)
	}
}

// parseSensList parses "(posedge a or negedge b)" / "(*)" / "*" / "(a or b)"
// or a bare single item "@(posedge clk)" style after '@' was consumed.
func (p *parser) parseSensList() ([]SensItem, bool, error) {
	if p.acceptOp("*") {
		return nil, true, nil
	}
	if err := p.expectOp("("); err != nil {
		return nil, false, err
	}
	if p.acceptOp("*") {
		if err := p.expectOp(")"); err != nil {
			return nil, false, err
		}
		return nil, true, nil
	}
	var items []SensItem
	for {
		edge := EdgeAny
		if p.acceptKeyword("posedge") {
			edge = EdgePos
		} else if p.acceptKeyword("negedge") {
			edge = EdgeNeg
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, false, err
		}
		items = append(items, SensItem{Edge: edge, Signal: name})
		if p.acceptKeyword("or") || p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, false, err
	}
	return items, false, nil
}

// parseInstance parses "modname [#(params)] instname (conns);".
func (p *parser) parseInstance(m *Module) error {
	line := p.cur().line
	modName, err := p.expectIdent()
	if err != nil {
		return err
	}
	inst := &Instance{ModuleName: modName, Line: line, ParamNamed: map[string]Expr{}, Conns: map[string]Expr{}}
	if p.acceptOp("#") {
		if err := p.expectOp("("); err != nil {
			return err
		}
		for !p.atOp(")") {
			if p.acceptOp(".") {
				pname, err := p.expectIdent()
				if err != nil {
					return err
				}
				if err := p.expectOp("("); err != nil {
					return err
				}
				e, err := p.parseExpr()
				if err != nil {
					return err
				}
				if err := p.expectOp(")"); err != nil {
					return err
				}
				inst.ParamNamed[pname] = e
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return err
				}
				inst.ParamOrder = append(inst.ParamOrder, e)
			}
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return err
		}
	}
	instName, err := p.expectIdent()
	if err != nil {
		return err
	}
	inst.Name = instName
	if err := p.expectOp("("); err != nil {
		return err
	}
	for !p.atOp(")") {
		if p.acceptOp(".") {
			pname, err := p.expectIdent()
			if err != nil {
				return err
			}
			if err := p.expectOp("("); err != nil {
				return err
			}
			var e Expr
			if !p.atOp(")") {
				e, err = p.parseExpr()
				if err != nil {
					return err
				}
			}
			if err := p.expectOp(")"); err != nil {
				return err
			}
			inst.Conns[pname] = e
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			inst.ConnOrder = append(inst.ConnOrder, e)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return err
	}
	if err := p.expectOp(";"); err != nil {
		return err
	}
	m.Items = append(m.Items, inst)
	return nil
}

// --- statements --------------------------------------------------------

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.atKeyword("begin"):
		p.advance()
		// Optional block label: begin : name
		if p.acceptOp(":") {
			if _, err := p.expectIdent(); err != nil {
				return nil, err
			}
		}
		blk := alloc(&p.blocks, Block{})
		for !p.atKeyword("end") {
			if p.atEOF() {
				return nil, p.errorf("unterminated begin/end block")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			blk.Stmts = append(blk.Stmts, s)
		}
		p.advance()
		return blk, nil

	case p.atKeyword("if"):
		line := t.line
		p.advance()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st := alloc(&p.ifs, IfStmt{Cond: cond, Then: then, Line: line})
		if p.acceptKeyword("else") {
			els, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil

	case p.atKeyword("case") || p.atKeyword("casez"):
		return p.parseCase()

	case p.atKeyword("for"):
		line := t.line
		p.advance()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		ini, err := p.parseSimpleAssign()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(";"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(";"); err != nil {
			return nil, err
		}
		step, err := p.parseSimpleAssign()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &ForStmt{Init: ini, Cond: cond, Step: step, Body: body, Line: line}, nil

	case p.atKeyword("while"):
		line := t.line
		p.advance()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: line}, nil

	case p.atKeyword("repeat"):
		line := t.line
		p.advance()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		n, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &RepeatStmt{Count: n, Body: body, Line: line}, nil

	case p.atKeyword("forever"):
		line := t.line
		p.advance()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &ForeverStmt{Body: body, Line: line}, nil

	case p.atKeyword("wait"):
		line := t.line
		p.advance()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		p.acceptOp(";")
		return &WaitStmt{Cond: cond, Line: line}, nil

	case p.atOp("#"):
		line := t.line
		p.advance()
		amt, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		if p.acceptOp(";") {
			return alloc(&p.delays, DelayStmt{Amount: amt, Line: line}), nil
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return alloc(&p.delays, DelayStmt{Amount: amt, Body: body, Line: line}), nil

	case p.atOp("@"):
		line := t.line
		p.advance()
		sens, star, err := p.parseSensList()
		if err != nil {
			return nil, err
		}
		if p.acceptOp(";") {
			return alloc(&p.events, EventStmt{Sens: sens, Star: star, Line: line}), nil
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return alloc(&p.events, EventStmt{Sens: sens, Star: star, Body: body, Line: line}), nil

	case t.kind == tokSysID:
		return p.parseSysCall()

	case p.atOp(";"):
		p.advance()
		return &NullStmt{}, nil

	default:
		// assignment statement
		asn, err := p.parseSimpleAssign()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(";"); err != nil {
			return nil, err
		}
		return asn, nil
	}
}

// parseSimpleAssign parses "lvalue = expr" or "lvalue <= expr" (no
// semicolon). The LHS is parsed as a postfix expression, not a full
// expression: that is what makes "q <= q + 1" an assignment rather than a
// less-equal comparison.
func (p *parser) parseSimpleAssign() (*Assign, error) {
	line := p.cur().line
	lhs, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptOp("="):
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return alloc(&p.assigns, Assign{LHS: lhs, RHS: rhs, Line: line}), nil
	case p.acceptOp("<="):
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return alloc(&p.assigns, Assign{LHS: lhs, RHS: rhs, NonBlocking: true, Line: line}), nil
	default:
		return nil, p.errorf("expected '=' or '<=' in assignment, got %q", p.cur().text)
	}
}

func (p *parser) parseCase() (Stmt, error) {
	line := p.cur().line
	isZ := p.cur().text == "casez"
	p.advance()
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	subj, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	st := &CaseStmt{Subject: subj, IsCasez: isZ, Line: line}
	for !p.atKeyword("endcase") {
		if p.atEOF() {
			return nil, p.errorf("unterminated case statement")
		}
		var item CaseItem
		if p.acceptKeyword("default") {
			item.IsDefault = true
			p.acceptOp(":")
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				item.Exprs = append(item.Exprs, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(":"); err != nil {
				return nil, err
			}
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		item.Body = body
		st.Items = append(st.Items, item)
	}
	p.advance()
	return st, nil
}

func (p *parser) parseSysCall() (Stmt, error) {
	t := p.advance()
	sc := alloc(&p.calls, SysCall{Name: t.text, Line: t.line})
	if p.acceptOp("(") {
		// Collect into a reused scratch, then claim an exact-size span of
		// the shared expr slab: testbenches carry thousands of $display/
		// $check_eq calls, and per-call argument-slice growth was a
		// measurable share of parse allocations.
		args := p.argScratch[:0]
		for !p.atOp(")") {
			if p.cur().kind == tokString {
				s := p.advance()
				if sc.Str == "" {
					sc.Str = s.text
				}
				args = append(args, alloc(&p.strs, StringLit{Text: s.text, Line: s.line}))
			} else {
				e, err := p.parseExpr()
				if err != nil {
					p.argScratch = args[:0]
					return nil, err
				}
				args = append(args, e)
			}
			if !p.acceptOp(",") {
				break
			}
		}
		if len(args) > 0 {
			slab, start := reserve(&p.exprSlab, len(args))
			copy(slab[start:start+len(args)], args)
			sc.Args = slab[start : start+len(args) : start+len(args)]
		}
		p.argScratch = args[:0]
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(";"); err != nil {
		return nil, err
	}
	return sc, nil
}

// --- expressions -------------------------------------------------------

// binary precedence levels, lowest first. "?:" handled above this table.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"|", "~|"},
	{"^", "~^", "^~"},
	{"&", "~&"},
	{"==", "!=", "===", "!=="},
	{"<", "<=", ">", ">="},
	{"<<", ">>", "<<<", ">>>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseExpr() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if p.acceptOp("?") {
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(":"); err != nil {
			return nil, err
		}
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Ternary{Cond: cond, Then: then, Else: els}, nil
	}
	return cond, nil
}

// opPrecLevel maps each binary operator to its precedence level, so the
// descent does one map probe per level instead of comparing the token
// against every operator string of the level.
var opPrecLevel = func() map[string]int {
	m := make(map[string]int)
	for lvl, ops := range precLevels {
		for _, op := range ops {
			m[op] = lvl
		}
	}
	return m
}()

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(precLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := &p.toks[p.pos]
		if t.kind != tokOp {
			return lhs, nil
		}
		lvl, ok := opPrecLevel[t.text]
		if !ok || lvl != level {
			return lhs, nil
		}
		matched := t.text
		p.advance()
		rhs, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = alloc(&p.binarys, Binary{Op: matched, X: lhs, Y: rhs})
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.toks[p.pos].kind != tokOp {
		return p.parsePostfix() // idents/numbers skip the operator scan
	}
	for _, op := range []string{"~&", "~|", "~^", "^~", "!", "~", "-", "+", "&", "|", "^"} {
		if p.atOp(op) {
			p.advance()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if op == "+" {
				return x, nil
			}
			return alloc(&p.unarys, Unary{Op: op, X: x}), nil
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.atOp("[") {
		line := p.cur().line
		p.advance()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.acceptOp(":") {
			lsb, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			e = &PartSelect{X: e, MSB: first, LSB: lsb, Line: line}
			continue
		}
		if err := p.expectOp("]"); err != nil {
			return nil, err
		}
		e = alloc(&p.indexes, Index{X: e, Idx: first, Line: line})
	}
	return e, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.advance()
		v, err := parseNumberLiteral(t.text)
		if err != nil {
			return nil, &ParseError{Pos{Line: t.line, Col: t.col}, err.Error()}
		}
		return alloc(&p.numbers, Number{Val: v, Line: t.line}), nil

	case t.kind == tokIdent:
		p.advance()
		return alloc(&p.idents, Ident{Name: t.text, Line: t.line}), nil

	case t.kind == tokString:
		p.advance()
		return alloc(&p.strs, StringLit{Text: t.text, Line: t.line}), nil

	case t.kind == tokSysID:
		p.advance()
		sf := &SysFunc{Name: t.text, Line: t.line}
		if p.acceptOp("(") {
			for !p.atOp(")") {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				sf.Args = append(sf.Args, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		}
		return sf, nil

	case p.atOp("("):
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil

	case p.atOp("{"):
		p.advance()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.atOp("{") {
			// replication {n{expr}}
			p.advance()
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp("}"); err != nil {
				return nil, err
			}
			if err := p.expectOp("}"); err != nil {
				return nil, err
			}
			return &Repeat{Count: first, X: inner}, nil
		}
		cc := &Concat{Parts: []Expr{first}}
		for p.acceptOp(",") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			cc.Parts = append(cc.Parts, e)
		}
		if err := p.expectOp("}"); err != nil {
			return nil, err
		}
		return cc, nil

	default:
		return nil, p.errorf("unexpected token %q in expression", t.text)
	}
}
