package verilog

import "fmt"

// evaluator is the tree-walking expression evaluator over bound
// expressions. The bytecode VM (bytecode.go, vm.go) executes every
// statement and expression; this evaluator is the reference semantics
// the VM is property-tested against (vm_prop_test.go), and concatWidth
// uses it to report the full width in the VM's concat-overflow
// diagnostic. It executes no statements.
type evaluator struct {
	sim *Simulator
}

// eval computes the value of an expression.
func (ev *evaluator) eval(ex Expr) (Value, error) {
	switch n := ex.(type) {
	case *Number:
		return n.Val, nil

	case *boundRef:
		sig := ev.sim.design.Signals[n.sig]
		if sig.Words > 1 {
			return Value{}, fmt.Errorf("memory %q used without an index at line %d", n.name, n.line)
		}
		return ev.sim.val(n.sig), nil

	case *boundParam:
		return n.val, nil

	case *Ident:
		// Binding left it unresolved.
		return Value{}, fmt.Errorf("unknown identifier %q at line %d", n.Name, n.Line)

	case *StringLit:
		return Value{}, fmt.Errorf("string literal %q used in value context", n.Text)

	case *Unary:
		x, err := ev.eval(n.X)
		if err != nil {
			return Value{}, err
		}
		return applyUnary(n.Op, x)

	case *Binary:
		x, err := ev.eval(n.X)
		if err != nil {
			return Value{}, err
		}
		y, err := ev.eval(n.Y)
		if err != nil {
			return Value{}, err
		}
		return applyBinary(n.Op, x, y)

	case *Ternary:
		c, err := ev.eval(n.Cond)
		if err != nil {
			return Value{}, err
		}
		if !c.IsFullyKnown() {
			t, err := ev.eval(n.Then)
			if err != nil {
				return Value{}, err
			}
			e, err := ev.eval(n.Else)
			if err != nil {
				return Value{}, err
			}
			return AllX(max(t.Width, e.Width)), nil
		}
		if c.IsTrue() {
			return ev.eval(n.Then)
		}
		return ev.eval(n.Else)

	case *Concat:
		// Single left-to-right pass: {a, b, ...} shifts the accumulator
		// left by each part's width. Allocation-free ConcatValues.
		var out Value
		for _, p := range n.Parts {
			v, err := ev.eval(p)
			if err != nil {
				return Value{}, err
			}
			if out.Width+v.Width > 64 {
				return Value{}, fmt.Errorf("verilog: concatenation width %d exceeds 64", concatWidth(ev, n))
			}
			m := maskFor(v.Width)
			out.Bits = out.Bits<<uint(v.Width) | v.Bits&m
			out.Unknown = out.Unknown<<uint(v.Width) | v.Unknown&m
			out.Width += v.Width
		}
		return out, nil

	case *Repeat:
		cnt, err := ev.eval(n.Count)
		if err != nil {
			return Value{}, err
		}
		if !cnt.IsFullyKnown() {
			return Value{}, fmt.Errorf("replication count is unknown")
		}
		x, err := ev.eval(n.X)
		if err != nil {
			return Value{}, err
		}
		k := int(cnt.Uint())
		// Guard without the k*x.Width product: a huge count (e.g. a 64-bit
		// literal) overflows int and would slip past, spinning the loop
		// below for 2^58 iterations on untrusted candidate source.
		if k <= 0 || x.Width <= 0 || k > 64/x.Width {
			return Value{}, fmt.Errorf("replication {%d{...}} of width %d unsupported", k, x.Width)
		}
		// Same allocation-free shift accumulator as Concat above.
		m := maskFor(x.Width)
		var out Value
		for i := 0; i < k; i++ {
			out.Bits = out.Bits<<uint(x.Width) | x.Bits&m
			out.Unknown = out.Unknown<<uint(x.Width) | x.Unknown&m
			out.Width += x.Width
		}
		return out, nil

	case *Index:
		// Memory word read?
		if ref, ok := n.X.(*boundRef); ok && ev.sim.design.Signals[ref.sig].Words > 1 {
			sig := ev.sim.design.Signals[ref.sig]
			idx, err := ev.eval(n.Idx)
			if err != nil {
				return Value{}, err
			}
			if !idx.IsFullyKnown() {
				return AllX(sig.Width), nil
			}
			w := int(idx.Uint())
			if w < 0 || w >= sig.Words {
				return AllX(sig.Width), nil
			}
			return ev.sim.words(sig.ID)[w], nil
		}
		x, err := ev.eval(n.X)
		if err != nil {
			return Value{}, err
		}
		idx, err := ev.eval(n.Idx)
		if err != nil {
			return Value{}, err
		}
		if !idx.IsFullyKnown() {
			return AllX(1), nil
		}
		i := int(idx.Uint())
		if i < 0 || i >= x.Width {
			return AllX(1), nil
		}
		return x.Bit(i), nil

	case *PartSelect:
		x, err := ev.eval(n.X)
		if err != nil {
			return Value{}, err
		}
		msbV, err := ev.eval(n.MSB)
		if err != nil {
			return Value{}, err
		}
		lsbV, err := ev.eval(n.LSB)
		if err != nil {
			return Value{}, err
		}
		if !msbV.IsFullyKnown() || !lsbV.IsFullyKnown() {
			return Value{}, fmt.Errorf("part-select bounds are unknown at line %d", n.Line)
		}
		msb, lsb := int(msbV.Uint()), int(lsbV.Uint())
		if msb < lsb || msb-lsb+1 > 64 {
			return Value{}, fmt.Errorf("bad part-select [%d:%d] at line %d", msb, lsb, n.Line)
		}
		w := msb - lsb + 1
		return Value{
			Bits:    (x.Bits >> uint(lsb)) & maskFor(w),
			Unknown: (x.Unknown >> uint(lsb)) & maskFor(w),
			Width:   w,
		}, nil

	case *SysFunc:
		switch n.Name {
		case "$time", "$stime", "$realtime":
			return NewValue(ev.sim.now, 64), nil
		case "$random", "$urandom":
			return NewValue(ev.sim.random()&0xFFFFFFFF, 32), nil
		case "$clog2":
			if len(n.Args) != 1 {
				return Value{}, fmt.Errorf("$clog2 takes one argument")
			}
			v, err := ev.eval(n.Args[0])
			if err != nil {
				return Value{}, err
			}
			if !v.IsFullyKnown() {
				return AllX(32), nil
			}
			x := v.Uint()
			n := 0
			// Cap at 64: for x > 2^63 the shift would overflow to zero
			// and spin forever (the answer is exactly 64 there).
			for n < 64 && (uint64(1)<<uint(n)) < x {
				n++
			}
			return NewValue(uint64(n), 32), nil
		default:
			return Value{}, fmt.Errorf("unsupported system function %s at line %d", n.Name, n.Line)
		}

	default:
		return Value{}, fmt.Errorf("unsupported expression %T", ex)
	}
}

// concatWidth sums a concatenation's part widths for the over-64
// diagnostic (evaluation errors inside count as zero; the width text is
// advisory only).
func concatWidth(ev *evaluator, n *Concat) int {
	total := 0
	for _, p := range n.Parts {
		if v, err := ev.eval(p); err == nil {
			total += v.Width
		}
	}
	return total
}
