package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoPanic forbids panic, log.Fatal* / log.Panic* and os.Exit in library
// packages. The codec is embedded in long-running chemistry drivers: a
// panic in a worker goroutine kills the whole SCF run, and log.Fatal
// skips deferred stream flushes. Escape hatches live only at the edges
// — package main under cmd/ and examples/ — or behind an explicit
// //lint:nopanic-ok marker for API-contract violations (programmer
// error, not data error), which must never be reachable from decoding
// untrusted bytes.
var NoPanic = &Analyzer{
	Name: "nopanic",
	Doc:  "forbid panic/log.Fatal/os.Exit outside cmd/ and examples/",
	Run:  perPackage(runNoPanic),
}

func runNoPanic(p *Pass) {
	if nopanicExempt(p.ModPath, p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				if obj, isBuiltin := p.Info.Uses[fun].(*types.Builtin); isBuiltin && obj.Name() == "panic" {
					p.Reportf(call.Pos(),
						"panic in library package %s; return an error, or annotate //lint:nopanic-ok for an unreachable API-contract guard",
						p.Path)
				}
			case *ast.SelectorExpr:
				obj, isFunc := p.Info.Uses[fun.Sel].(*types.Func)
				if !isFunc || obj.Pkg() == nil {
					return true
				}
				pkg, name := obj.Pkg().Path(), obj.Name()
				if (pkg == "log" && (strings.HasPrefix(name, "Fatal") || strings.HasPrefix(name, "Panic"))) ||
					(pkg == "os" && name == "Exit") {
					p.Reportf(call.Pos(),
						"%s.%s in library package %s; return an error instead (deferred flushes are skipped)",
						obj.Pkg().Name(), name, p.Path)
				}
			}
			return true
		})
	}
}

// nopanicExempt reports whether pkgPath is an edge package where
// process-terminating calls are the correct idiom.
func nopanicExempt(modPath, pkgPath string) bool {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, modPath), "/")
	return strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/")
}
