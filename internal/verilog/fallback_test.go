package verilog

import (
	"strings"
	"testing"
)

// TestFallbackShapesPinned pins the shapes that once ran on the tree
// evaluator instead of the VM, now that the VM executes everything:
//
//   - concat lvalues whose part-select bounds are parameter expressions
//     lower like literal bounds (outputs recorded from the tree path);
//   - concat lvalues whose part-select bounds are not constant end the
//     run with a diagnostic when the statement runs (procedural,
//     non-blocking and continuous alike), where the tree path wrote
//     whichever bits the current bounds selected;
//   - $error and $fatal render like $display behind an "ERROR at time T: "
//     prefix and count a failure (outputs recorded from the tree path); a
//     malformed argument list raises the diagnostic $display raises for
//     it, where the tree path printed a placeholder message.
func TestFallbackShapesPinned(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		// task marks a source whose "$TASK" must behave identically as
		// $display, $error and $fatal: the malformed call fails first.
		task     bool
		output   string
		failures int
		finished bool
		endTime  uint64
		rtErr    string
	}{{
		name: "parameter-expression concat lvalues",
		src: `
module split #(parameter N = 2) (input [2*N-1:0] in, output [N-1:0] hi, output [N-1:0] lo);
  assign {hi[N-1:0], lo[N-1:N-N]} = in;
endmodule
module tb;
  parameter W = 4;
  localparam H = W / 2;
  reg [2*W-1:0] x;
  reg [1:0] y;
  reg [W+1:0] v;
  reg [5:0] sv;
  wire [W-1:0] cx;
  wire [1:0] cy;
  wire [2:0] hi, lo;
  assign {cx[W-1:H], cy, cx[H-1:0]} = v;
  split #(.N(3)) u (.in(sv), .hi(hi), .lo(lo));
  initial begin
    x = 0; y = 0;
    {x[W-1:0], y} = 6'b101101;
    $display("x=%b y=%b", x, y);
    {y, x[2*W-1:W]} <= 6'b011010;
    $display("x=%b y=%b (nba pending)", x, y);
    #1 $display("x=%b y=%b", x, y);
    {x[W+H:W+1], {y[1], x[H:H-1]}} = 5'b10110;
    $display("x=%b y=%b", x, y);
    v = 6'b110011; sv = 6'b101110;
    #1 $display("cx=%b cy=%b hi=%b lo=%b", cx, cy, hi, lo);
    v = 6'b001100; sv = 6'b010001;
    #1 $display("cx=%b cy=%b hi=%b lo=%b", cx, cy, hi, lo);
    {x[2*W:W], y} = 7'h7f;
    $display("unreachable");
  end
endmodule`,
		output: "x=1011 y=1\nx=1011 y=1 (nba pending)\nx=10101011 y=1\nx=11001101 y=11\n" +
			"cx=1111 cy=0 hi=101 lo=110\ncx=0 cy=11 hi=10 lo=1\n",
		endTime: 3,
		rtErr:   `line 30: part-select [8:4] out of range for "tb.x"`,
	}, {
		name: "procedural concat lvalue",
		src: `
module tb;
  reg [7:0] x;
  reg [1:0] y;
  integer i;
  initial begin
    x = 8'h00; y = 2'b00;
    i = 2;
    $display("before");
    {x[i+1:i], y} = 4'b1011;
    $display("unreachable");
  end
endmodule`,
		output: "before\n",
		rtErr:  `line 10: part-select of "tb.x" in a concatenation lvalue has non-constant bounds`,
	}, {
		name: "non-blocking concat lvalue",
		src: `
module tb;
  reg [7:0] x;
  reg [1:0] y;
  reg clk;
  integer i;
  always @(posedge clk) {y, {x[i+1:i]}} <= 4'b0110;
  initial begin
    i = 3; clk = 0;
    #1 clk = 1;
    #1 $display("unreachable");
  end
endmodule`,
		endTime: 1,
		rtErr:   `line 7: part-select of "tb.x" in a concatenation lvalue has non-constant bounds`,
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
		// The assign's first evaluation, before any process runs, ends
		// the run.
		rtErr: `continuous assign at line 7: part-select of "tb.x" in a concatenation lvalue has non-constant bounds`,
	}, {
		name: "concat lvalue naming an unknown signal",
		src: `
module tb;
  reg [1:0] y;
  initial begin
    y = 0;
    {z, y} = 4'b1011;
  end
endmodule`,
		rtErr: `line 6: unknown identifier "z"`,
	}, {
		name: "well-formed $error and $fatal",
		src: `
module tb;
  reg [7:0] a;
  reg [3:0] u;
  integer k;
  initial begin
    a = 8'hA5;
    $error("d=%d h=%h x=%x b=%b o=%o c=%c t=%t m=%m s=%s pct=%% w=%0d", a, a, a, a, a, 8'h41, $time, "str", a);
    $error();
    $error(a, " and ", 3);
    $error("unknown %d %h %b", u, u, u);
    $error("no verbs at all");
    for (k = 0; k < 3; k = k + 1) begin
      #2 $error("loop k=%0d at %0t", k, $time);
    end
    $display("before fatal");
    $fatal("fatal a=%h", a);
    $display("unreachable");
  end
  initial begin
    #1 $error("second process %m");
    #100 $display("other process");
  end
endmodule`,
		output: "ERROR at time 0: d=165 h=a5 x=a5 b=10100101 o=245 c=A t=0 m=tb.initial@6 s=str pct=% w=165\n" +
			"ERROR at time 0: \nERROR at time 0: 165  and  3\nERROR at time 0: unknown x x xxxx\n" +
			"ERROR at time 0: no verbs at all\nERROR at time 1: second process tb.initial@20\n" +
			"ERROR at time 2: loop k=0 at 2\nERROR at time 4: loop k=1 at 4\nERROR at time 6: loop k=2 at 6\n" +
			"before fatal\nERROR at time 6: fatal a=a5\n",
		failures: 10,
		finished: true,
		endTime:  6,
	}, {
		name: "unformattable $error and $fatal",
		src: `
module tb;
  reg [7:0] a;
  initial begin
    a = 8'd5;
    $display("before");
    $TASK("a=%d b=%d", a);
    $display("unreachable");
  end
endmodule`,
		task:   true,
		output: "before\n",
		rtErr:  `line 7: format string "a=%d b=%d" has more verbs than arguments`,
	}, {
		name: "$error and $fatal with a string where a value belongs",
		src: `
module tb;
  initial $TASK("x %d", "str");
endmodule`,
		task:  true,
		rtErr: `line 3: string argument where value expected in "x %d"`,
	}, {
		name: "$error and $fatal with an argument that fails to evaluate",
		src: `
module tb;
  reg [7:0] a;
  reg [2:0] i;
  initial begin
    a = 8'd5;
    $TASK("part %d", a[i:0]);
  end
endmodule`,
		task:  true,
		rtErr: `line 7: part-select bounds are unknown at line 7`,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			srcs := map[string]string{"": tc.src}
			if tc.task {
				srcs = map[string]string{}
				for _, task := range []string{"$display", "$error", "$fatal"} {
					srcs[task] = strings.ReplaceAll(tc.src, "$TASK", task)
				}
			}
			for task, src := range srcs {
				cd, err := CompileSources("tb", src)
				if err != nil {
					t.Fatalf("%s compile: %v", task, err)
				}
				res, err := cd.Run(SimOptions{})
				if err != nil {
					t.Fatalf("%s run: %v", task, err)
				}
				if res.Output != tc.output {
					t.Errorf("%s output = %q, want %q", task, res.Output, tc.output)
				}
				if res.Failures != tc.failures || res.Finished != tc.finished || res.EndTime != tc.endTime {
					t.Errorf("%s failures=%d finished=%v end=%d, want %d %v %d", task,
						res.Failures, res.Finished, res.EndTime, tc.failures, tc.finished, tc.endTime)
				}
				rtErr := ""
				if res.RuntimeErr != nil {
					rtErr = res.RuntimeErr.Error()
				}
				if rtErr != tc.rtErr {
					t.Errorf("%s runtime error = %q, want %q", task, rtErr, tc.rtErr)
				}
			}
		})
	}
}
