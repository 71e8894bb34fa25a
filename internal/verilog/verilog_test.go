package verilog

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLexerBasics(t *testing.T) {
	toks, err := lexAll("module m; wire [3:0] a = 4'b1010; endmodule // c\n/* block */")
	if err != nil {
		t.Fatalf("lexAll: %v", err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	want := []string{"module", "m", ";", "wire", "[", "3", ":", "0", "]", "a", "=", "4'b1010", ";", "endmodule", ""}
	if len(texts) != len(want) {
		t.Fatalf("token count = %d, want %d (%v)", len(texts), len(want), texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexerErrors(t *testing.T) {
	cases := []string{
		`"unterminated`,
		"/* unterminated",
		"4'q1010",
	}
	for _, src := range cases {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q) succeeded, want error", src)
		}
	}
}

func TestParseNumberLiteral(t *testing.T) {
	cases := []struct {
		text  string
		width int
		bits  uint64
	}{
		{"4'b1010", 4, 10},
		{"8'hff", 8, 255},
		{"12'd100", 12, 100},
		{"42", 32, 42},
		{"16'h1_0", 16, 16}, // underscores removed at lexing; direct parse here
	}
	for _, c := range cases {
		v, err := parseNumberLiteral(strings.ReplaceAll(c.text, "_", ""))
		if err != nil {
			t.Errorf("parseNumberLiteral(%s): %v", c.text, err)
			continue
		}
		if v.Width != c.width || v.Uint() != c.bits || !v.IsFullyKnown() {
			t.Errorf("parseNumberLiteral(%s) = %v, want width %d bits %d", c.text, v, c.width, c.bits)
		}
	}
	v, err := parseNumberLiteral("4'b10xx")
	if err != nil {
		t.Fatalf("x literal: %v", err)
	}
	if v.Unknown != 0b0011 || v.Bits != 0b1000 {
		t.Errorf("4'b10xx = %v", v)
	}
}

func TestValueOps(t *testing.T) {
	a := NewValue(0b1100, 4)
	b := NewValue(0b1010, 4)
	if got := And(a, b, 4).Uint(); got != 0b1000 {
		t.Errorf("And = %b", got)
	}
	if got := Or(a, b, 4).Uint(); got != 0b1110 {
		t.Errorf("Or = %b", got)
	}
	if got := Xor(a, b, 4).Uint(); got != 0b0110 {
		t.Errorf("Xor = %b", got)
	}
	if got := Add(a, b, 4).Uint(); got != 0b0110 { // 12+10=22 mod 16 = 6
		t.Errorf("Add = %b", got)
	}
	if Div(a, NewValue(0, 4), 4).IsFullyKnown() {
		t.Errorf("Div by zero should be X")
	}
	// X-aware AND: 0 & x == 0, 1 & x == x.
	x := Value{Unknown: 0b1111, Width: 4}
	r := And(NewValue(0b0101, 4), x, 4)
	if r.Unknown != 0b0101 {
		t.Errorf("And with x: unknown = %04b, want 0101", r.Unknown)
	}
	// X-aware OR: 1 | x == 1.
	r = Or(NewValue(0b0101, 4), x, 4)
	if r.Unknown != 0b1010 || r.Bits != 0b0101 {
		t.Errorf("Or with x: %v", r)
	}
}

func TestValuePropertiesQuick(t *testing.T) {
	// Addition over fully-known values matches uint64 arithmetic mod 2^w.
	addOK := func(a, b uint64) bool {
		const w = 16
		va, vb := NewValue(a, w), NewValue(b, w)
		return Add(va, vb, w).Uint() == (a+b)&maskFor(w)
	}
	if err := quick.Check(addOK, nil); err != nil {
		t.Error(err)
	}
	// Concat then part-select round-trips.
	rt := func(a, b uint64) bool {
		va, vb := NewValue(a, 16), NewValue(b, 16)
		cc, err := ConcatValues(va, vb)
		if err != nil {
			return false
		}
		hi := Value{Bits: cc.Bits >> 16, Unknown: cc.Unknown >> 16, Width: 16}
		lo := cc.Resize(16)
		return hi.Uint() == va.Uint() && lo.Uint() == vb.Uint()
	}
	if err := quick.Check(rt, nil); err != nil {
		t.Error(err)
	}
	// De Morgan on known values: ~(a&b) == ~a | ~b.
	dm := func(a, b uint64) bool {
		const w = 32
		va, vb := NewValue(a, w), NewValue(b, w)
		lhs := Not(And(va, vb, w), w)
		rhs := Or(Not(va, w), Not(vb, w), w)
		return lhs.Equal(rhs)
	}
	if err := quick.Check(dm, nil); err != nil {
		t.Error(err)
	}
}

func TestParseModuleANSIAndNonANSI(t *testing.T) {
	ansi := `
module adder(input [3:0] a, input [3:0] b, output [4:0] sum);
  assign sum = a + b;
endmodule`
	f, err := Parse(ansi)
	if err != nil {
		t.Fatalf("Parse(ansi): %v", err)
	}
	m := f.FindModule("adder")
	if m == nil || len(m.Ports) != 3 {
		t.Fatalf("adder ports = %v", m)
	}
	if m.Ports[2].Dir != DirOutput {
		t.Errorf("sum direction = %v", m.Ports[2].Dir)
	}

	nonANSI := `
module adder(a, b, sum);
  input [3:0] a, b;
  output [4:0] sum;
  assign sum = a + b;
endmodule`
	f, err = Parse(nonANSI)
	if err != nil {
		t.Fatalf("Parse(nonANSI): %v", err)
	}
	m = f.FindModule("adder")
	if m.Ports[0].Dir != DirInput || m.Ports[2].Dir != DirOutput {
		t.Errorf("non-ANSI directions wrong: %+v", m.Ports)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                             // no modules
		"module m(; endmodule",         // bad port list
		"module m(); asign x = 1;",     // bad keyword, missing endmodule
		"module m(); wire w endmodule", // missing semicolon
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestSimCombinationalAdder(t *testing.T) {
	src := `
module adder(input [3:0] a, input [3:0] b, input cin, output [3:0] sum, output cout);
  assign {cout, sum} = a + b + cin;
endmodule

module tb;
  reg [3:0] a, b;
  reg cin;
  wire [3:0] sum;
  wire cout;
  adder dut(.a(a), .b(b), .cin(cin), .sum(sum), .cout(cout));
  integer i;
  initial begin
    for (i = 0; i < 16; i = i + 1) begin
      a = i; b = 15 - i; cin = i[0];
      #1;
      $check_eq({cout, sum}, a + b + cin);
    end
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if res.RuntimeErr != nil {
		t.Fatalf("runtime: %v\n%s", res.RuntimeErr, res.Output)
	}
	if !res.Finished || res.Checks != 16 || res.Failures != 0 {
		t.Fatalf("checks=%d failures=%d finished=%v\n%s", res.Checks, res.Failures, res.Finished, res.Output)
	}
}

func TestSimSequentialCounter(t *testing.T) {
	src := `
module counter(input clk, input rst, output reg [7:0] q);
  always @(posedge clk) begin
    if (rst) q <= 0;
    else q <= q + 1;
  end
endmodule

module tb;
  reg clk, rst;
  wire [7:0] q;
  counter dut(.clk(clk), .rst(rst), .q(q));
  always #5 clk = ~clk;
  initial begin
    clk = 0; rst = 1;
    #12 rst = 0;
    #100;
    $check_eq(q, 10);
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if res.RuntimeErr != nil {
		t.Fatalf("runtime: %v\n%s", res.RuntimeErr, res.Output)
	}
	if !res.Passed() {
		t.Fatalf("counter failed: checks=%d failures=%d\n%s", res.Checks, res.Failures, res.Output)
	}
}

func TestSimNonBlockingSwap(t *testing.T) {
	// The classic NBA swap: both registers exchange values on one edge.
	src := `
module tb;
  reg clk;
  reg [3:0] x, y;
  always @(posedge clk) begin
    x <= y;
    y <= x;
  end
  initial begin
    clk = 0; x = 3; y = 9;
    #1 clk = 1;
    #1;
    $check_eq(x, 9);
    $check_eq(y, 3);
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("NBA swap failed:\n%s", res.Output)
	}
}

func TestSimAlwaysStarMux(t *testing.T) {
	src := `
module mux4(input [1:0] sel, input [7:0] a, b, c, d, output reg [7:0] y);
  always @(*) begin
    case (sel)
      2'd0: y = a;
      2'd1: y = b;
      2'd2: y = c;
      default: y = d;
    endcase
  end
endmodule

module tb;
  reg [1:0] sel;
  reg [7:0] a, b, c, d;
  wire [7:0] y;
  mux4 dut(.sel(sel), .a(a), .b(b), .c(c), .d(d), .y(y));
  initial begin
    a = 8'h11; b = 8'h22; c = 8'h33; d = 8'h44;
    sel = 0; #1 $check_eq(y, 8'h11);
    sel = 1; #1 $check_eq(y, 8'h22);
    sel = 2; #1 $check_eq(y, 8'h33);
    sel = 3; #1 $check_eq(y, 8'h44);
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("mux4 failed: %d/%d\n%s", res.Failures, res.Checks, res.Output)
	}
}

func TestSimParameterOverride(t *testing.T) {
	src := `
module ffd #(parameter W = 4) (input clk, input [W-1:0] d, output reg [W-1:0] q);
  always @(posedge clk) q <= d;
endmodule

module tb;
  reg clk;
  reg [7:0] d;
  wire [7:0] q;
  ffd #(.W(8)) dut(.clk(clk), .d(d), .q(q));
  initial begin
    clk = 0; d = 8'hA5;
    #1 clk = 1;
    #1 $check_eq(q, 8'hA5);
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("parameter override failed:\n%s", res.Output)
	}
}

func TestSimMemory(t *testing.T) {
	src := `
module tb;
  reg [7:0] mem [0:15];
  integer i;
  initial begin
    for (i = 0; i < 16; i = i + 1)
      mem[i] = i * 3;
    for (i = 0; i < 16; i = i + 1)
      $check_eq(mem[i], i * 3);
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if !res.Passed() || res.Checks != 16 {
		t.Fatalf("memory test: checks=%d failures=%d\n%s", res.Checks, res.Failures, res.Output)
	}
}

func TestSimDisplayFormats(t *testing.T) {
	src := `
module tb;
  reg [7:0] v;
  initial begin
    v = 8'hA5;
    $display("dec=%d hex=%h bin=%b", v, v, v);
    $display("time=%t", $time);
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if !strings.Contains(res.Output, "dec=165 hex=a5 bin=10100101") {
		t.Errorf("display output = %q", res.Output)
	}
}

func TestSimXPropagation(t *testing.T) {
	// Uninitialized reg reads as X; adding to it stays X.
	src := `
module tb;
  reg [3:0] a;
  reg [3:0] b;
  initial begin
    b = a + 1;
    if (b === 4'bxxxx) $display("XPROP OK");
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if !strings.Contains(res.Output, "XPROP OK") {
		t.Errorf("x-propagation broken:\n%s", res.Output)
	}
}

func TestSimProceduralAssignToWireFails(t *testing.T) {
	src := `
module tb;
  wire w;
  initial begin
    w = 1;
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if res.RuntimeErr == nil || !strings.Contains(res.RuntimeErr.Error(), "wire") {
		t.Errorf("expected wire-assignment diagnostic, got %v", res.RuntimeErr)
	}
}

func TestSimCombinationalLoopDetected(t *testing.T) {
	// An inverting loop with all-X values legitimately settles at X; the
	// oscillation only starts once a known value enters the ring.
	src := `
module tb;
  reg en;
  wire a;
  assign a = en ? ~a : 1'b0;
  initial begin
    en = 0;
    #1 en = 1;
    #10 $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if res.RuntimeErr == nil || !strings.Contains(res.RuntimeErr.Error(), "loop") {
		t.Errorf("expected combinational-loop diagnostic, got %v", res.RuntimeErr)
	}
}

func TestSimMissingFinishTimesOut(t *testing.T) {
	src := `
module tb;
  reg clk;
  always #5 clk = ~clk;
  initial clk = 0;
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{MaxTime: 1000})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if !res.TimedOut {
		t.Errorf("expected timeout, got %+v", res)
	}
}

func TestSimHierarchyTwoLevels(t *testing.T) {
	src := `
module half_adder(input a, b, output s, c);
  assign s = a ^ b;
  assign c = a & b;
endmodule

module full_adder(input a, b, cin, output s, cout);
  wire s1, c1, c2;
  half_adder ha1(.a(a), .b(b), .s(s1), .c(c1));
  half_adder ha2(.a(s1), .b(cin), .s(s), .c(c2));
  assign cout = c1 | c2;
endmodule

module tb;
  reg a, b, cin;
  wire s, cout;
  full_adder dut(.a(a), .b(b), .cin(cin), .s(s), .cout(cout));
  integer i;
  initial begin
    for (i = 0; i < 8; i = i + 1) begin
      {a, b, cin} = i;
      #1 $check_eq({cout, s}, a + b + cin);
    end
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if !res.Passed() || res.Checks != 8 {
		t.Fatalf("hierarchy: checks=%d failures=%d\n%s", res.Checks, res.Failures, res.Output)
	}
}

func TestSimFSMSequenceDetector(t *testing.T) {
	// Detect "101" on a serial input, Moore-style.
	src := `
module det101(input clk, rst, din, output reg found);
  reg [1:0] st;
  localparam S0 = 2'd0, S1 = 2'd1, S2 = 2'd2;
  always @(posedge clk) begin
    if (rst) begin st <= S0; found <= 0; end
    else begin
      found <= 0;
      case (st)
        S0: st <= din ? S1 : S0;
        S1: st <= din ? S1 : S2;
        S2: begin
          if (din) begin found <= 1; st <= S1; end
          else st <= S0;
        end
        default: st <= S0;
      endcase
    end
  end
endmodule

module tb;
  reg clk, rst, din;
  wire found;
  det101 dut(.clk(clk), .rst(rst), .din(din), .found(found));
  reg [7:0] pattern;
  integer i, hits;
  always #5 clk = ~clk;
  initial begin
    clk = 0; rst = 1; din = 0; hits = 0;
    pattern = 8'b10110101;
    @(negedge clk) rst = 0;
    for (i = 8; i > 0; i = i - 1) begin
      din = pattern[i-1];
      @(negedge clk);
      if (found) hits = hits + 1;
    end
    @(negedge clk);
    if (found) hits = hits + 1;
    $check_eq(hits, 3);
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("fsm: checks=%d failures=%d\n%s", res.Checks, res.Failures, res.Output)
	}
}

func TestSimForLoopIntegerNegative(t *testing.T) {
	// "i >= 0" with integer decrement relies on unsigned wraparound
	// comparison; the loop above uses i = i - 1 down to 0. Specifically
	// check that a countdown terminates (i becomes 2^32-1 and fails < 8).
	src := `
module tb;
  integer i;
  integer n;
  initial begin
    n = 0;
    for (i = 7; i >= 0 && i < 8; i = i - 1)
      n = n + 1;
    $check_eq(n, 8);
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("countdown loop: %s", res.Output)
	}
}

func TestElaborateErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		top  string
	}{
		{"missing top", "module m(); endmodule", "nope"},
		{"unknown module", "module m(); foo f(.x(1)); endmodule", "m"},
		{"bad port", `
module a(input x); endmodule
module m(); wire w; a i(.y(w)); endmodule`, "m"},
		{"width too large", "module m(input [99:0] a); endmodule", "m"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := Parse(c.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if _, err := Elaborate(f, c.top); err == nil {
				t.Errorf("Elaborate succeeded, want error")
			}
		})
	}
}

func TestRunTestbenchSeparateSources(t *testing.T) {
	dut := `
module inv(input a, output y);
  assign y = ~a;
endmodule`
	tb := `
module tb;
  reg a;
  wire y;
  inv dut(.a(a), .y(y));
  initial begin
    a = 0; #1 $check_eq(y, 1);
    a = 1; #1 $check_eq(y, 0);
    $finish;
  end
endmodule`
	res, err := RunTestbench(dut, tb, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("RunTestbench: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("inv failed:\n%s", res.Output)
	}
}

func TestSimWaitStatement(t *testing.T) {
	src := `
module tb;
  reg flag;
  reg done;
  initial begin
    flag = 0; done = 0;
    #20 flag = 1;
  end
  initial begin
    wait (flag);
    done = 1;
    $check_eq($time >= 20, 1);
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("wait: %s", res.Output)
	}
}

func TestSimShiftRegisterConcat(t *testing.T) {
	src := `
module shreg(input clk, input din, output reg [3:0] q);
  always @(posedge clk) q <= {q[2:0], din};
endmodule

module tb;
  reg clk, din;
  wire [3:0] q;
  shreg dut(.clk(clk), .din(din), .q(q));
  initial begin
    clk = 0; din = 1;
    #1 clk = 1; #1 clk = 0;
    din = 0;
    #1 clk = 1; #1 clk = 0;
    din = 1;
    #1 clk = 1; #1 clk = 0;
    $check_eq(q[2:0], 3'b101);
    $finish;
  end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("shift register: %s", res.Output)
	}
}

func TestFormatSignals(t *testing.T) {
	src := `
module tb;
  reg [3:0] a;
  initial begin a = 5; #1 $finish; end
endmodule`
	res, err := CompileAndRun(src, "tb", SimOptions{})
	if err != nil {
		t.Fatalf("CompileAndRun: %v", err)
	}
	out := FormatSignals(res, "tb.")
	if !strings.Contains(out, "tb.a=4'b0101") {
		t.Errorf("FormatSignals = %q", out)
	}
}
