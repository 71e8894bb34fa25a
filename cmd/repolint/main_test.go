package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func lintSrc(t *testing.T, base, src string) []finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, base, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return lintFile(fset, f, base)
}

// The real kernel must pass — this is the same gate `make ci` runs.
func TestKernelIsClean(t *testing.T) {
	findings, err := lintDir("../../internal/verilog")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s", f.pos, f.msg)
	}
}

// Every rule must fire on synthetic violations — a linter that cannot
// find anything is indistinguishable from one that checks nothing.
func TestRulesFire(t *testing.T) {
	cases := []struct {
		name, base, src, want string
	}{
		{"fmt-hot", "vm.go",
			"package v\nimport \"fmt\"\nfunc step() { fmt.Sprintf(\"%d\", 1) }\n",
			"fmt.Sprintf on kernel hot path"},
		{"time", "sim.go",
			"package v\nimport \"time\"\nfunc tick() { _ = time.Now() }\n",
			"time.Now in kernel file"},
		{"goroutine", "eval.go",
			"package v\nfunc eval() { go func() {}() }\n",
			"goroutine spawned in kernel file"},
		// No kernel function is exempt, whatever its name.
		{"sweep", "sim.go",
			"package v\nfunc (s *S) parallelSweep() { go func() {}() }\ntype S struct{}\n",
			"goroutine spawned in kernel file"},
		{"probe-unguarded", "sim.go",
			"package v\ntype S struct{ probe func(int) }\nfunc (s *S) commit() { s.probe(1) }\n",
			"without an enclosing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			findings := lintSrc(t, c.base, c.src)
			if len(findings) != 1 || !strings.Contains(findings[0].msg, c.want) {
				t.Fatalf("findings = %+v, want one containing %q", findings, c.want)
			}
		})
	}
}

// The allowed shapes must stay allowed: fmt.Errorf and cold helpers on
// hot files, and guarded probe calls.
func TestAllowlists(t *testing.T) {
	cases := []struct{ name, base, src string }{
		{"errorf", "vm.go",
			"package v\nimport \"fmt\"\nfunc step() error { return fmt.Errorf(\"x\") }\n"},
		{"cold-func", "value.go",
			"package v\nimport \"fmt\"\nfunc FormatWords() string { return fmt.Sprintf(\"x\") }\n"},
		{"fallback", "eval.go",
			"package v\nimport \"fmt\"\nfunc execSysCall() { fmt.Fprintf(nil, \"x\") }\n"},
		{"guarded-probe", "sim.go",
			"package v\ntype S struct{ probe func(int) }\nfunc (s *S) commit() { if s.probe != nil { s.probe(1) } }\n"},
		{"non-kernel", "parser.go",
			"package v\nimport \"time\"\nfunc parse() { _ = time.Now(); go func() {}() }\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if findings := lintSrc(t, c.base, c.src); len(findings) != 0 {
				t.Fatalf("unexpected findings: %+v", findings)
			}
		})
	}
}

// TestFaultGuardRule pins the repo-wide Fire-guard contract: the fault
// hook call must sit under a dominating `!= nil` guard, and the hook's
// own error check does not count as one. Unlike the kernel rules this
// applies to every linted file.
func TestFaultGuardRule(t *testing.T) {
	cases := []struct {
		name, src string
		want      int
	}{
		{"guarded fire is clean",
			"package p\nfunc f() {\n\tif in != nil {\n\t\tin.Fire(ctx, \"pt\")\n\t}\n}\n", 0},
		{"guarded fire with inner error check is clean",
			"package p\nfunc f() error {\n\tif s.faults != nil {\n\t\tif err := s.faults.Fire(ctx, \"pt\"); err != nil {\n\t\t\treturn err\n\t\t}\n\t}\n\treturn nil\n}\n", 0},
		{"bare fire is flagged",
			"package p\nfunc f() {\n\tin.Fire(ctx, \"pt\")\n}\n", 1},
		{"own error check alone does not satisfy the guard",
			"package p\nfunc f() error {\n\tif err := in.Fire(ctx, \"pt\"); err != nil {\n\t\treturn err\n\t}\n\treturn nil\n}\n", 1},
		{"sibling nil guard does not leak in",
			"package p\nfunc f() {\n\tif other != nil {\n\t\tuse(other)\n\t}\n\tin.Fire(ctx, \"pt\")\n}\n", 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// handlers.go: a service file, outside the kernel scope.
			findings := lintSrc(t, "handlers.go", c.src)
			if len(findings) != c.want {
				t.Fatalf("findings = %+v, want %d", findings, c.want)
			}
			for _, f := range findings {
				if !strings.Contains(f.msg, "Fire") {
					t.Errorf("unexpected finding: %s", f.msg)
				}
			}
		})
	}
}

// TestObsGuardRule pins the kernel telemetry contract: obs recording
// calls (Record/Since) in kernel files must sit under a dominating
// `!= nil` guard — the nil-safe receiver is not enough on the per-event
// path. Outside kernel files the rule is silent: service-layer spans
// are always allocated and guards there would be noise.
func TestObsGuardRule(t *testing.T) {
	cases := []struct {
		name, base, src string
		want            int
	}{
		{"guarded record is clean", "vm.go",
			"package v\nfunc step() {\n\tif sp != nil {\n\t\tsp.Record(phase, d)\n\t}\n}\n", 0},
		{"bare record in kernel file is flagged", "eval.go",
			"package v\nfunc eval() {\n\tsp.Record(phase, d)\n}\n", 1},
		{"bare since in kernel file is flagged", "sim.go",
			"package v\nfunc tick() {\n\tsp.Since(phase, start)\n}\n", 1},
		{"bare record outside kernel files is clean", "handlers.go",
			"package p\nfunc finish() {\n\tjb.spans.Record(phase, d)\n}\n", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			findings := lintSrc(t, c.base, c.src)
			if len(findings) != c.want {
				t.Fatalf("findings = %+v, want %d", findings, c.want)
			}
			for _, f := range findings {
				if !strings.Contains(f.msg, "obs recording call") {
					t.Errorf("unexpected finding: %s", f.msg)
				}
			}
		})
	}
}

// TestServiceDirsAreClean runs the same multi-directory gate `make ci`
// runs over the fault-hook call sites.
func TestServiceDirsAreClean(t *testing.T) {
	for _, dir := range []string{"../../internal/edaserver", "../../internal/simfarm", "../../eda"} {
		findings, err := lintDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Errorf("%s: %s", f.pos, f.msg)
		}
	}
}
