package hls

import (
	"fmt"
	"strings"

	"llm4eda/internal/chdl"
)

// codegen lowers one kernel to an FSM: one state per C statement, with
// memories for arrays and an ap_start/ap_done handshake. The style matches
// what a baseline (un-pipelined) HLS flow emits.
type codegen struct {
	prog *chdl.Program
	fn   *chdl.FuncDecl
	opts Options

	states   []*fsmState
	regs     map[string]bool // verilog reg names
	regOrder []string
	mems     map[string]memInfo
	memOrder []string
	scopes   []map[string]string // C name -> verilog storage name
	renameN  int
	warnings []string

	startAssigns []string // executed in the idle state on ap_start
	doneState    int
	entryState   int

	loops []loopCtx
}

type memInfo struct {
	name  string
	words int
}

type loopCtx struct {
	breakPatches []patchRef
	continueTo   int
}

type fsmState struct {
	assigns   []string
	condExpr  string // when set, branch: cond ? nextTrue : nextFalse
	nextTrue  int
	nextFalse int
	done      bool
}

type patchRef struct {
	state   int
	onFalse bool
}

const maxStates = 4000

func newCodegen(prog *chdl.Program, fn *chdl.FuncDecl, opts Options) *codegen {
	return &codegen{
		prog: prog, fn: fn, opts: opts,
		regs: map[string]bool{}, mems: map[string]memInfo{},
		scopes: []map[string]string{{}},
	}
}

func (g *codegen) paramNames() []string {
	names := make([]string, len(g.fn.Params))
	for i, p := range g.fn.Params {
		names[i] = p.Name
	}
	return names
}

func (g *codegen) errorf(line int, format string, args ...any) error {
	return fmt.Errorf("hls codegen at line %d: %s", line, fmt.Sprintf(format, args...))
}

func (g *codegen) newState() int {
	g.states = append(g.states, &fsmState{nextTrue: -1, nextFalse: -1})
	return len(g.states) - 1
}

func (g *codegen) pushScope() { g.scopes = append(g.scopes, map[string]string{}) }
func (g *codegen) popScope()  { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *codegen) lookup(name string) (string, bool) {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if v, ok := g.scopes[i][name]; ok {
			return v, true
		}
	}
	return "", false
}

// declareReg binds a C scalar to a fresh verilog reg.
func (g *codegen) declareReg(name string) string {
	v := "v_" + name
	if g.regs[v] {
		g.renameN++
		v = fmt.Sprintf("v_%s_%d", name, g.renameN)
	}
	g.regs[v] = true
	g.regOrder = append(g.regOrder, v)
	g.scopes[len(g.scopes)-1][name] = v
	return v
}

// declareMem binds a C array to a verilog memory.
func (g *codegen) declareMem(name string, words int) (string, error) {
	total := words
	for _, m := range g.mems {
		total += m.words
	}
	if total > maxMemWords {
		return "", fmt.Errorf("hls: memory budget exceeded (%d words)", total)
	}
	v := "mem_" + name
	if _, dup := g.mems[v]; dup {
		g.renameN++
		v = fmt.Sprintf("mem_%s_%d", name, g.renameN)
	}
	g.mems[v] = memInfo{name: v, words: words}
	g.memOrder = append(g.memOrder, v)
	g.scopes[len(g.scopes)-1][name] = v
	return v, nil
}

// run builds the FSM.
func (g *codegen) run() error {
	// Parameters: copied from input ports when ap_start fires.
	for _, p := range g.fn.Params {
		switch p.Type.Kind {
		case chdl.KindPtr, chdl.KindArray:
			return g.errorf(p.Line, "array/pointer parameter %q: the subset synthesizes kernels with scalar interfaces; make the buffer kernel-local", p.Name)
		}
		reg := g.declareReg(p.Name)
		g.startAssigns = append(g.startAssigns, fmt.Sprintf("%s <= arg_%s;", reg, p.Name))
	}
	// Globals: scalars initialize on start; arrays initialize in states.
	var globalInitStates []int
	for _, gl := range g.prog.Globals {
		switch gl.Type.Kind {
		case chdl.KindArray:
			words := gl.Type.ArrayLen
			if words < 0 {
				words = len(gl.InitList)
			}
			mem, err := g.declareMem(gl.Name, words)
			if err != nil {
				return err
			}
			for i, e := range gl.InitList {
				val, err := g.expr(e)
				if err != nil {
					return err
				}
				s := g.newState()
				g.states[s].assigns = append(g.states[s].assigns,
					fmt.Sprintf("%s[%d] <= %s;", mem, i, val))
				globalInitStates = append(globalInitStates, s)
			}
		case chdl.KindPtr:
			return g.errorf(gl.Line, "global pointer %q is not synthesizable", gl.Name)
		default:
			reg := g.declareReg(gl.Name)
			init := "0"
			if gl.Init != nil {
				v, err := g.expr(gl.Init)
				if err != nil {
					return err
				}
				init = v
			}
			g.startAssigns = append(g.startAssigns, fmt.Sprintf("%s <= %s;", reg, init))
		}
	}

	entry, exits, err := g.genStmt(g.fn.Body)
	if err != nil {
		return err
	}
	g.doneState = g.newState()
	g.states[g.doneState].done = true
	g.patch(exits, g.doneState)

	// Chain global-array init states before the body entry.
	first := entry
	for i := len(globalInitStates) - 1; i >= 0; i-- {
		g.states[globalInitStates[i]].nextTrue = first
		first = globalInitStates[i]
	}
	// State 0 is reserved for idle in emit; remap by +1 offset there.
	g.entryState = first

	if len(g.states) > maxStates {
		return fmt.Errorf("hls: kernel needs %d states (> %d); reduce code size", len(g.states), maxStates)
	}
	return nil
}

func (g *codegen) patch(ps []patchRef, target int) {
	for _, p := range ps {
		if p.onFalse {
			g.states[p.state].nextFalse = target
		} else {
			g.states[p.state].nextTrue = target
		}
	}
}

// genStmt emits states for one statement; it returns the entry state and
// the dangling exits to patch to the successor. entry == -1 means the
// statement emitted nothing (empty block).
func (g *codegen) genStmt(st chdl.Stmt) (int, []patchRef, error) {
	switch n := st.(type) {
	case nil, *chdl.PragmaStmt:
		return -1, nil, nil

	case *chdl.BlockStmt:
		g.pushScope()
		defer g.popScope()
		entry := -1
		var exits []patchRef
		for _, s := range n.Stmts {
			e, x, err := g.genStmt(s)
			if err != nil {
				return 0, nil, err
			}
			if e == -1 {
				continue
			}
			if entry == -1 {
				entry = e
			} else {
				g.patch(exits, e)
			}
			exits = x
		}
		return entry, exits, nil

	case *chdl.DeclStmt:
		entry := -1
		var exits []patchRef
		link := func(s int) {
			if entry == -1 {
				entry = s
			} else {
				g.patch(exits, s)
			}
			exits = []patchRef{{state: s}}
		}
		for _, d := range n.Decls {
			switch d.Type.Kind {
			case chdl.KindPtr:
				return 0, nil, g.errorf(d.Line, "pointer variable %q is not synthesizable", d.Name)
			case chdl.KindArray:
				words := d.Type.ArrayLen
				if words < 0 {
					words = len(d.InitList)
				}
				if words <= 0 {
					return 0, nil, g.errorf(d.Line, "array %q has no static size", d.Name)
				}
				if d.Type.Elem.Kind == chdl.KindArray {
					return 0, nil, g.errorf(d.Line, "multi-dimensional array %q unsupported; flatten it", d.Name)
				}
				mem, err := g.declareMem(d.Name, words)
				if err != nil {
					return 0, nil, err
				}
				for i, e := range d.InitList {
					val, err := g.expr(e)
					if err != nil {
						return 0, nil, err
					}
					s := g.newState()
					g.states[s].assigns = append(g.states[s].assigns, fmt.Sprintf("%s[%d] <= %s;", mem, i, val))
					link(s)
				}
			default:
				reg := g.declareReg(d.Name)
				init := "0"
				if d.Init != nil {
					v, err := g.expr(d.Init)
					if err != nil {
						return 0, nil, err
					}
					init = v
				}
				s := g.newState()
				g.states[s].assigns = append(g.states[s].assigns, fmt.Sprintf("%s <= %s;", reg, init))
				link(s)
			}
		}
		return entry, exits, nil

	case *chdl.ExprStmt:
		return g.genExprStmt(n.X, n.Line)

	case *chdl.IfStmt:
		cond, err := g.expr(n.Cond)
		if err != nil {
			return 0, nil, err
		}
		cs := g.newState()
		g.states[cs].condExpr = cond
		thenEntry, thenExits, err := g.genStmt(n.Then)
		if err != nil {
			return 0, nil, err
		}
		var exits []patchRef
		if thenEntry == -1 {
			exits = append(exits, patchRef{state: cs})
		} else {
			g.states[cs].nextTrue = thenEntry
			exits = append(exits, thenExits...)
		}
		if n.Else != nil {
			elseEntry, elseExits, err := g.genStmt(n.Else)
			if err != nil {
				return 0, nil, err
			}
			if elseEntry == -1 {
				exits = append(exits, patchRef{state: cs, onFalse: true})
			} else {
				g.states[cs].nextFalse = elseEntry
				exits = append(exits, elseExits...)
			}
		} else {
			exits = append(exits, patchRef{state: cs, onFalse: true})
		}
		return cs, exits, nil

	case *chdl.ForStmt:
		g.pushScope()
		defer g.popScope()
		entry := -1
		var preExits []patchRef
		if n.Init != nil {
			e, x, err := g.genStmt(n.Init)
			if err != nil {
				return 0, nil, err
			}
			entry, preExits = e, x
		}
		condState := g.newState()
		if n.Cond != nil {
			cond, err := g.expr(n.Cond)
			if err != nil {
				return 0, nil, err
			}
			g.states[condState].condExpr = cond
		}
		if entry == -1 {
			entry = condState
		} else {
			g.patch(preExits, condState)
		}

		g.loops = append(g.loops, loopCtx{})
		bodyEntry, bodyExits, err := g.genStmt(n.Body)
		if err != nil {
			return 0, nil, err
		}
		var postEntry int
		var postExits []patchRef
		if n.Post != nil {
			e, x, err := g.genExprStmt(n.Post, n.Line)
			if err != nil {
				return 0, nil, err
			}
			postEntry, postExits = e, x
		} else {
			postEntry = -1
		}
		backTarget := condState
		if postEntry != -1 {
			g.patch(postExits, condState)
			backTarget = postEntry
		}
		if bodyEntry == -1 {
			g.states[condState].nextTrue = backTarget
		} else {
			g.states[condState].nextTrue = bodyEntry
			g.patch(bodyExits, backTarget)
		}
		lc := g.loops[len(g.loops)-1]
		g.loops = g.loops[:len(g.loops)-1]
		for _, br := range lc.breakPatches {
			// patched to successor below via exits
			_ = br
		}
		exits := append([]patchRef{{state: condState, onFalse: true}}, lc.breakPatches...)
		// continue jumps to post (or cond).
		_ = lc.continueTo
		return entry, exits, nil

	case *chdl.WhileStmt:
		condState := g.newState()
		cond, err := g.expr(n.Cond)
		if err != nil {
			return 0, nil, err
		}
		g.states[condState].condExpr = cond
		g.loops = append(g.loops, loopCtx{})
		bodyEntry, bodyExits, err := g.genStmt(n.Body)
		if err != nil {
			return 0, nil, err
		}
		if bodyEntry == -1 {
			g.states[condState].nextTrue = condState
		} else {
			g.states[condState].nextTrue = bodyEntry
			g.patch(bodyExits, condState)
		}
		lc := g.loops[len(g.loops)-1]
		g.loops = g.loops[:len(g.loops)-1]
		exits := append([]patchRef{{state: condState, onFalse: true}}, lc.breakPatches...)
		return condState, exits, nil

	case *chdl.DoStmt:
		g.loops = append(g.loops, loopCtx{})
		bodyEntry, bodyExits, err := g.genStmt(n.Body)
		if err != nil {
			return 0, nil, err
		}
		condState := g.newState()
		cond, err := g.expr(n.Cond)
		if err != nil {
			return 0, nil, err
		}
		g.states[condState].condExpr = cond
		if bodyEntry == -1 {
			bodyEntry = condState
		}
		g.patch(bodyExits, condState)
		g.states[condState].nextTrue = bodyEntry
		lc := g.loops[len(g.loops)-1]
		g.loops = g.loops[:len(g.loops)-1]
		exits := append([]patchRef{{state: condState, onFalse: true}}, lc.breakPatches...)
		return bodyEntry, exits, nil

	case *chdl.ReturnStmt:
		s := g.newState()
		val := "0"
		if n.X != nil {
			v, err := g.expr(n.X)
			if err != nil {
				return 0, nil, err
			}
			val = v
		}
		g.states[s].assigns = append(g.states[s].assigns, fmt.Sprintf("ap_return <= %s;", val))
		g.states[s].nextTrue = -2 // resolved to done state in emit
		return s, nil, nil

	case *chdl.BreakStmt:
		if len(g.loops) == 0 {
			return 0, nil, g.errorf(n.Line, "break outside loop")
		}
		s := g.newState()
		lc := &g.loops[len(g.loops)-1]
		lc.breakPatches = append(lc.breakPatches, patchRef{state: s})
		return s, nil, nil

	case *chdl.ContinueStmt:
		return 0, nil, g.errorf(n.Line, "continue is not supported by the HLS subset; restructure the loop")

	default:
		return 0, nil, g.errorf(0, "unsupported statement %T", st)
	}
}

// genExprStmt emits the state for an effectful expression statement.
func (g *codegen) genExprStmt(e chdl.Expr, line int) (int, []patchRef, error) {
	switch n := e.(type) {
	case *chdl.AssignExpr:
		rhs, err := g.expr(n.RHS)
		if err != nil {
			return 0, nil, err
		}
		lhs, err := g.lvalue(n.LHS)
		if err != nil {
			return 0, nil, err
		}
		val := rhs
		if n.Op != "=" {
			cur, err := g.expr(n.LHS)
			if err != nil {
				return 0, nil, err
			}
			val = fmt.Sprintf("(%s %s %s)", cur, strings.TrimSuffix(n.Op, "="), rhs)
		}
		s := g.newState()
		g.states[s].assigns = append(g.states[s].assigns, fmt.Sprintf("%s <= %s;", lhs, val))
		return s, []patchRef{{state: s}}, nil

	case *chdl.PostfixExpr, *chdl.UnExpr:
		var target chdl.Expr
		var op string
		if pf, ok := e.(*chdl.PostfixExpr); ok {
			target, op = pf.X, pf.Op
		} else {
			un := e.(*chdl.UnExpr)
			if un.Op != "++" && un.Op != "--" {
				return 0, nil, g.errorf(line, "expression statement %q has no effect", un.Op)
			}
			target, op = un.X, un.Op
		}
		cur, err := g.expr(target)
		if err != nil {
			return 0, nil, err
		}
		lhs, err := g.lvalue(target)
		if err != nil {
			return 0, nil, err
		}
		verb := "+"
		if op == "--" {
			verb = "-"
		}
		s := g.newState()
		g.states[s].assigns = append(g.states[s].assigns, fmt.Sprintf("%s <= %s %s 1;", lhs, cur, verb))
		return s, []patchRef{{state: s}}, nil

	case *chdl.CallExpr:
		if n.Name == "printf" || n.Name == "puts" || n.Name == "putchar" {
			g.warnings = append(g.warnings, fmt.Sprintf("line %d: %s ignored during synthesis", n.Line, n.Name))
			return -1, nil, nil
		}
		return 0, nil, g.errorf(n.Line, "call to %q: the subset inlines no function calls; flatten the kernel", n.Name)

	default:
		return 0, nil, g.errorf(line, "expression statement %T has no synthesizable effect", e)
	}
}

// lvalue renders an assignable target.
func (g *codegen) lvalue(e chdl.Expr) (string, error) {
	switch n := e.(type) {
	case *chdl.VarRef:
		v, ok := g.lookup(n.Name)
		if !ok {
			return "", g.errorf(n.Line, "undefined variable %q", n.Name)
		}
		if strings.HasPrefix(v, "mem_") {
			return "", g.errorf(n.Line, "array %q assigned without index", n.Name)
		}
		return v, nil
	case *chdl.IndexExpr:
		vr, ok := n.X.(*chdl.VarRef)
		if !ok {
			return "", g.errorf(n.Line, "only direct array indexing is synthesizable")
		}
		mem, ok := g.lookup(vr.Name)
		if !ok || !strings.HasPrefix(mem, "mem_") {
			return "", g.errorf(n.Line, "%q is not an array", vr.Name)
		}
		idx, err := g.expr(n.Idx)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s[%s]", mem, idx), nil
	default:
		return "", g.errorf(0, "unsupported assignment target %T", e)
	}
}

// expr renders a C expression as Verilog over the kernel's registers.
func (g *codegen) expr(e chdl.Expr) (string, error) {
	w := g.opts.WidthBits
	switch n := e.(type) {
	case *chdl.IntLit:
		return fmt.Sprintf("%d'd%d", w, uint64(n.Val)&maskW(w)), nil
	case *chdl.VarRef:
		v, ok := g.lookup(n.Name)
		if !ok {
			return "", g.errorf(n.Line, "undefined variable %q", n.Name)
		}
		return v, nil
	case *chdl.BinExpr:
		x, err := g.expr(n.X)
		if err != nil {
			return "", err
		}
		y, err := g.expr(n.Y)
		if err != nil {
			return "", err
		}
		op := n.Op
		switch op {
		case "&&", "||", "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
			"==", "!=", "<", "<=", ">", ">=":
			return fmt.Sprintf("(%s %s %s)", x, op, y), nil
		default:
			return "", g.errorf(n.Line, "operator %q is not synthesizable", op)
		}
	case *chdl.UnExpr:
		x, err := g.expr(n.X)
		if err != nil {
			return "", err
		}
		switch n.Op {
		case "-":
			return fmt.Sprintf("(%d'd0 - %s)", w, x), nil
		case "~":
			return fmt.Sprintf("(~%s)", x), nil
		case "!":
			return fmt.Sprintf("(!%s)", x), nil
		default:
			return "", g.errorf(n.Line, "unary %q is not synthesizable", n.Op)
		}
	case *chdl.CondExpr:
		c, err := g.expr(n.Cond)
		if err != nil {
			return "", err
		}
		t, err := g.expr(n.Then)
		if err != nil {
			return "", err
		}
		f, err := g.expr(n.Else)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(%s ? %s : %s)", c, t, f), nil
	case *chdl.IndexExpr:
		return g.lvalue(n)
	case *chdl.CallExpr:
		if n.Name == "abs" && len(n.Args) == 1 {
			x, err := g.expr(n.Args[0])
			if err != nil {
				return "", err
			}
			// Unsigned datapath: abs of a two's-complement value.
			return fmt.Sprintf("((%s >> %d) ? (%d'd0 - %s) : %s)", x, w-1, w, x, x), nil
		}
		return "", g.errorf(n.Line, "call to %q in expression is not synthesizable", n.Name)
	case *chdl.CastExpr:
		return g.expr(n.X)
	case *chdl.SizeofExpr:
		return fmt.Sprintf("%d'd1", w), nil
	default:
		return "", g.errorf(0, "unsupported expression %T", e)
	}
}

// emit renders the module. FSM state 0 is idle; generated states are
// shifted by +1; the done state returns to idle.
func (g *codegen) emit() string {
	w := g.opts.WidthBits
	var b strings.Builder
	fmt.Fprintf(&b, "module hls_%s(\n", g.fn.Name)
	b.WriteString("  input clk,\n  input rst,\n  input ap_start,\n  output reg ap_done,\n")
	for _, p := range g.fn.Params {
		fmt.Fprintf(&b, "  input [%d:0] arg_%s,\n", w-1, p.Name)
	}
	fmt.Fprintf(&b, "  output reg [%d:0] ap_return\n);\n", w-1)
	b.WriteString("  reg [15:0] state;\n")
	for _, r := range g.regOrder {
		fmt.Fprintf(&b, "  reg [%d:0] %s;\n", w-1, r)
	}
	for _, mname := range g.memOrder {
		m := g.mems[mname]
		fmt.Fprintf(&b, "  reg [%d:0] %s [0:%d];\n", w-1, m.name, m.words-1)
	}
	b.WriteString("\n  always @(posedge clk) begin\n")
	b.WriteString("    if (rst) begin\n      state <= 16'd0;\n      ap_done <= 1'b0;\n    end else begin\n")
	b.WriteString("      case (state)\n")
	// Idle.
	b.WriteString("        16'd0: begin\n          ap_done <= 1'b0;\n          if (ap_start) begin\n")
	fmt.Fprintf(&b, "            ap_return <= %d'd0;\n", w)
	for _, a := range g.startAssigns {
		fmt.Fprintf(&b, "            %s\n", a)
	}
	fmt.Fprintf(&b, "            state <= 16'd%d;\n", g.entryState+1)
	b.WriteString("          end\n        end\n")

	target := func(t int) int {
		switch t {
		case -1:
			return g.doneState + 1 // dangling exit: finish defensively
		case -2:
			return g.doneState + 1
		default:
			return t + 1
		}
	}
	for i, st := range g.states {
		fmt.Fprintf(&b, "        16'd%d: begin\n", i+1)
		if st.done {
			b.WriteString("          ap_done <= 1'b1;\n          state <= 16'd0;\n")
		} else {
			for _, a := range st.assigns {
				fmt.Fprintf(&b, "          %s\n", a)
			}
			if st.condExpr != "" {
				fmt.Fprintf(&b, "          state <= (%s) ? 16'd%d : 16'd%d;\n",
					st.condExpr, target(st.nextTrue), target(st.nextFalse))
			} else {
				fmt.Fprintf(&b, "          state <= 16'd%d;\n", target(st.nextTrue))
			}
		}
		b.WriteString("        end\n")
	}
	b.WriteString("        default: state <= 16'd0;\n")
	b.WriteString("      endcase\n    end\n  end\nendmodule\n")
	return b.String()
}
