// Command repolint enforces repository invariants the Go compiler
// cannot: performance and soundness contracts of the simulator kernel
// that are easy to break in review and expensive to rediscover in a
// profile. Stdlib-only (go/ast, go/parser), wired into `make ci` as
// lint-go.
//
// Rules (scoped to internal/verilog):
//
//   - no-fmt-hot: vm.go, eval.go and value.go are the VM dispatch,
//     expression evaluation and value kernel — reflection-based fmt
//     formatting there turns into per-event allocations. fmt.Errorf is
//     allowed (error construction happens once, on failure exits), as
//     are the named cold paths: renderDisplay and
//     Format*/String/render*/dump*/disasm* helpers.
//   - no-time: the kernel is deterministic by construction; wall-clock
//     reads (any use of the time package) in kernel files would leak
//     nondeterminism into simulation results or their caching.
//   - no-goroutine: kernel files must not spawn goroutines — scheduling
//     belongs to the caller (simfarm). There are no exceptions.
//   - probe-guard: every call of the commit-probe field must sit under
//     an `... .probe != nil` guard, keeping the zero-overhead-when-off
//     contract (and nil safety) visible at each call site.
//   - obs-guard: telemetry recording calls (methods named Record or
//     Since, the recording methods of obs.Histogram and obs.Spans) in
//     kernel files must sit under a dominating `!= nil` guard. The obs
//     types are nil-receiver-safe, but on the per-event kernel path even
//     the call overhead must be guarded away when telemetry is off.
//
// Rules (every linted directory):
//
//   - fault-guard: every call of a fault-injection hook (a method named
//     Fire) must sit under an enclosing `... != nil` guard, so a
//     production build with no injector configured pays a nil check and
//     nothing else. The call's own `if err := x.Fire(...); err != nil`
//     error check does not count — the guard must dominate the call.
//
// Usage: repolint [pkgdir ...]   (default ./internal/verilog)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// hotFiles are the per-event kernel: no fmt formatting outside cold
// helpers.
var hotFiles = map[string]bool{"vm.go": true, "eval.go": true, "value.go": true}

// kernelFiles additionally carry the no-time / no-goroutine / probe
// rules (the full simulation engine, excluding front-end and analysis).
var kernelFiles = map[string]bool{
	"vm.go": true, "eval.go": true, "value.go": true, "sim.go": true,
	"interp.go": true, "bytecode.go": true, "compile.go": true,
}

// coldFunc reports whether a function in a hot file is an allowed cold
// path for fmt formatting.
func coldFunc(name string) bool {
	switch name {
	case "renderDisplay":
		return true
	}
	for _, p := range []string{"Format", "String", "render", "dump", "disasm"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

type finding struct {
	pos token.Position
	msg string
}

// lintFile applies every applicable rule to one parsed file.
func lintFile(fset *token.FileSet, f *ast.File, base string) []finding {
	var out []finding
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, finding{fset.Position(n.Pos()), fmt.Sprintf(format, args...)})
	}
	// The verilog-kernel rules are filename-scoped; the fault-guard rule
	// applies to every linted file, so no early return on a cold file.
	hot, kernel := hotFiles[base], kernelFiles[base]

	// stack tracks enclosing nodes so each check can see its function
	// and its guards; ast.Inspect signals pop with nil.
	var stack []ast.Node
	enclosingFunc := func() string {
		for i := len(stack) - 1; i >= 0; i-- {
			if fd, ok := stack[i].(*ast.FuncDecl); ok {
				return fd.Name.Name
			}
		}
		return ""
	}
	probeGuarded := func() bool {
		for i := len(stack) - 1; i >= 0; i-- {
			ifst, ok := stack[i].(*ast.IfStmt)
			if !ok {
				continue
			}
			guarded := false
			ast.Inspect(ifst.Cond, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || be.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{be.X, be.Y} {
					if sel, ok := side.(*ast.SelectorExpr); ok && sel.Sel.Name == "probe" {
						guarded = true
					}
				}
				return true
			})
			if guarded {
				return true
			}
		}
		return false
	}
	// nilGuarded reports whether call sits inside the BODY of an IfStmt
	// whose condition contains a `!= nil` comparison. An IfStmt whose
	// init/cond region contains the call itself is skipped: the hook's
	// own `if err := x.Fire(...); err != nil` error check must not
	// satisfy the guard that is supposed to dominate the call.
	nilGuarded := func(call ast.Node) bool {
		for i := len(stack) - 1; i >= 0; i-- {
			ifst, ok := stack[i].(*ast.IfStmt)
			if !ok {
				continue
			}
			if call.Pos() < ifst.Body.Pos() {
				continue // the call is in this if's init or condition
			}
			guarded := false
			ast.Inspect(ifst.Cond, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || be.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{be.X, be.Y} {
					if id, ok := side.(*ast.Ident); ok && id.Name == "nil" {
						guarded = true
					}
				}
				return true
			})
			if guarded {
				return true
			}
		}
		return false
	}

	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch node := n.(type) {
		case *ast.GoStmt:
			if kernel {
				report(node, "goroutine spawned in kernel file %s", base)
			}
		case *ast.SelectorExpr:
			pkg, ok := node.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch pkg.Name {
			case "time":
				if kernel {
					report(node, "time.%s in kernel file %s: the simulator must not read wall-clock state", node.Sel.Name, base)
				}
			case "fmt":
				if hot && node.Sel.Name != "Errorf" && !coldFunc(enclosingFunc()) {
					report(node, "fmt.%s on kernel hot path %s (func %s): formatting allocates per event",
						node.Sel.Name, base, enclosingFunc())
				}
			}
		case *ast.CallExpr:
			sel, ok := node.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "probe":
				if kernel && !probeGuarded() {
					report(node, "probe called without an enclosing `.probe != nil` guard in %s", base)
				}
			case "Fire":
				if !nilGuarded(node) {
					report(node, "fault hook Fire called without a dominating `!= nil` guard in %s: injection must be zero-overhead when off", base)
				}
			case "Record", "Since":
				if kernel && !nilGuarded(node) {
					report(node, "obs recording call %s without a dominating `!= nil` guard in kernel file %s: telemetry must be zero-overhead when off", sel.Sel.Name, base)
				}
			}
		}
		return true
	})
	return out
}

// lintDir lints every non-test Go file of one package directory.
func lintDir(dir string) ([]finding, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	fset := token.NewFileSet()
	var out []finding
	for _, path := range paths {
		base := filepath.Base(path)
		if strings.HasSuffix(base, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, lintFile(fset, f, base)...)
	}
	return out, nil
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"./internal/verilog"}
	}
	var findings []finding
	for _, dir := range dirs {
		fs, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Printf("repolint: %s: %s\n", f.pos, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
