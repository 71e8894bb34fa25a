package verilog

import (
	"fmt"
	"strings"
	"testing"
)

// TestLoweringLinearInExpressionSize: lowering an expression visits each
// node a bounded number of times. Before folding moved into lowering,
// expr re-ran the constant folder at every node and the folder walked
// the subtree again, so a chain of n operators took O(n²) visits (an
// 8,000-operator assign took 0.7 s to compile, a 100,000-operator one
// over a minute). The bound here is on visits, not wall time. Every
// chain must also simulate to the right value; the sum reads a 100,001
// times and still runs its assign once per change of a.
func TestLoweringLinearInExpressionSize(t *testing.T) {
	const n = 100_000
	cases := []struct {
		name, rhs string
		nodes     int
		want      string
	}{
		// 3 × (n+1) mod 256 with a = 3.
		{"sum", "a" + strings.Repeat(" + a", n), 2*n + 1, fmt.Sprint(3 * (n + 1) % 256)},
		// a + n mod 256 with a = 3.
		{"offset", "a" + strings.Repeat(" + 1", n), 2*n + 1, fmt.Sprint((n + 3) % 256)},
		// An even number of complements is the identity.
		{"not", strings.Repeat("~", n) + "a", n + 1, "3"},
		// A constant chain folds to one literal.
		{"const", "1" + strings.Repeat(" + 1", n), 2*n + 1, fmt.Sprint((n + 1) % 256)},
		// a + 1 + 2 + … + n: n distinct constants, (3 + n(n+1)/2) mod 256.
		{"distinct", "a" + distinctTerms(n), 2*n + 1, fmt.Sprint((3 + n*(n+1)/2) % 256)},
	}
	for _, c := range cases {
		src := "module tb; reg [7:0] a; wire [7:0] y; assign y = " + c.rhs + ";\n" +
			"initial begin a = 3; #1 $display(\"%0d\", y); end endmodule"
		cd, err := CompileSources("tb", src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := cd.Run(SimOptions{})
		if err != nil || res.Output != c.want+"\n" {
			t.Errorf("%s: output %q, err %v; want %s", c.name, res.Output, err, c.want)
		}
		ca := cd.Design.assigns[0]
		lw := getLowerer(cd.Design, ca.scope, false)
		lw.expr(ca.rhs, 0)
		visits := lw.visits
		putLowerer(lw)
		if visits > 2*c.nodes {
			t.Errorf("%s: lowering %d nodes took %d visits, want at most %d", c.name, c.nodes, visits, 2*c.nodes)
		}
	}
}

// distinctTerms renders " + 1 + 2 + … + n".
func distinctTerms(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, " + %d", i)
	}
	return b.String()
}
