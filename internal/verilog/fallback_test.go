package verilog

import "testing"

// TestFallbackShapesPinned fixes the simulator's output on the shapes
// that still lower to the tree evaluator: a concat lvalue with
// non-constant part bounds (procedural, via opFallbackStmt, and
// continuous, via the tree arm of evalContAssign) and $error/$fatal
// whose arguments fail to evaluate. Lowering these shapes into bytecode,
// or rejecting them at compile, must account for every difference from
// these outputs.
func TestFallbackShapesPinned(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		// fallback reports whether the design really runs the shape
		// through the tree evaluator.
		fallback func(*Design) bool
		output   string
		failures int
		finished bool
		endTime  uint64
		rtErr    string
	}{{
		name: "procedural concat lvalue",
		src: `
module tb;
  reg [7:0] x;
  reg [1:0] y;
  integer i;
  initial begin
    x = 8'h00; y = 2'b00;
    i = 2;
    {x[i+1:i], y} = 4'b1011;
    $display("x=%b y=%b", x, y);
    i = 5;
    {y, x[i+1:i]} = 4'b0110;
    $display("x=%b y=%b", x, y);
    i = 7;
    {x[i+1:i], y} = 4'b1101;
    $display("x=%b y=%b", x, y);
    $finish;
  end
endmodule`,
		fallback: func(d *Design) bool { return len(d.procs[0].prog.fbStmts) == 3 },
		output:   "x=1000 y=11\nx=1001000 y=1\n",
		rtErr:    `line 15: part-select [8:7] out of range for "tb.x"`,
	}, {
		name: "continuous concat lvalue",
		src: `
module tb;
  reg [3:0] v;
  reg [2:0] i;
  wire [7:0] x;
  wire [1:0] y;
  assign {x[i+1:i], y} = v;
  initial begin
    i = 1; v = 4'b1011;
    #1 $display("x=%b y=%b", x, y);
    i = 4; v = 4'b0110;
    #1 $display("x=%b y=%b", x, y);
    $finish;
  end
endmodule`,
		fallback: func(d *Design) bool { return d.assigns[0].prog == nil },
		// The tree path writes only the bits the current bounds select,
		// so x[2:1] keeps its first value after i moves.
		output:   "x=xxxxx10x y=11\nx=xx01x10x y=10\n",
		finished: true,
		endTime:  2,
	}, {
		name: "unformattable $error and $fatal",
		src: `
module tb;
  reg [7:0] a;
  reg [2:0] i;
  initial begin
    a = 8'd5;
    $error("a=%d b=%d", a);
    $display("after error");
    $error("part %d", a[i:0]);
    $display("still running");
    $fatal("fatal %d %d", a);
    $display("unreachable");
  end
  initial begin
    #5 $display("other process");
  end
endmodule`,
		fallback: func(d *Design) bool { return len(d.procs[0].prog.fbStmts) == 3 },
		// Each failed format prints the placeholder and still counts a
		// failure; $fatal ends the whole run at once.
		output: "ERROR at time 0: (unformattable $error message)\nafter error\n" +
			"ERROR at time 0: (unformattable $error message)\nstill running\n" +
			"ERROR at time 0: (unformattable $error message)\n",
		failures: 3,
		finished: true,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			cd, err := CompileSources("tb", tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if !tc.fallback(cd.Design) {
				t.Fatal("shape no longer lowers to the tree evaluator")
			}
			res, err := cd.Run(SimOptions{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Output != tc.output {
				t.Errorf("output = %q, want %q", res.Output, tc.output)
			}
			if res.Failures != tc.failures || res.Finished != tc.finished || res.EndTime != tc.endTime {
				t.Errorf("failures=%d finished=%v end=%d, want %d %v %d",
					res.Failures, res.Finished, res.EndTime, tc.failures, tc.finished, tc.endTime)
			}
			rtErr := ""
			if res.RuntimeErr != nil {
				rtErr = res.RuntimeErr.Error()
			}
			if rtErr != tc.rtErr {
				t.Errorf("runtime error = %q, want %q", rtErr, tc.rtErr)
			}
		})
	}
}
