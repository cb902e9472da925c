package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// ErrDrop flags dropped error returns at stream-I/O call sites: calls
// into the bit-stream substrate (internal/bitio), the mixed-geometry
// container layer (internal/container), the core stream codec, and the
// standard I/O packages. A swallowed bitio.ErrUnexpectedEOF turns a
// truncated stream into silently wrong science data — the decoder
// "succeeds" with garbage quanta — so these call sites must either
// handle the error or annotate why dropping is sound.
//
// Flagged shapes: a call used as a bare statement or `defer` whose
// (last) result is error, and explicit discards `_ = f()` of such
// calls, when the callee is defined in one of the watched packages.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flag dropped error results from bitio/container/stream-I/O calls",
	Run:  perPackage(runErrDrop),
}

// errDropWatched lists packages whose error returns must not be
// dropped. Module-local entries are path suffixes resolved against
// Pass.ModPath.
var errDropWatched = map[string]bool{
	"io":                      true,
	"bufio":                   true,
	"os":                      true,
	"$MOD":                    true, // the public façade (StreamWriter.Close flushes!)
	"$MOD/internal/bitio":     true,
	"$MOD/internal/container": true,
	"$MOD/internal/core":      true,
}

func runErrDrop(p *Pass) {
	watched := make(map[string]bool, len(errDropWatched))
	for k := range errDropWatched {
		if strings.HasPrefix(k, "$MOD") {
			k = p.ModPath + k[len("$MOD"):]
		}
		watched[k] = true
	}
	check := func(call *ast.CallExpr, how string) {
		pkg, name := p.calleePackage(call)
		if pkg == nil || !watched[pkg.Path()] {
			return
		}
		if !callReturnsError(p.Info, call) {
			return
		}
		p.Reportf(call.Pos(),
			"error result of %s.%s %s; handle it or annotate //lint:errdrop-ok with why dropping is sound",
			pkg.Name(), name, how)
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(call, "is dropped")
				}
			case *ast.DeferStmt:
				check(n.Call, "is dropped by defer")
			case *ast.GoStmt:
				check(n.Call, "is dropped by go")
			case *ast.AssignStmt:
				// _ = f()  or  v, _ := f()  discarding the error slot.
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				sig := callSignature(p.Info, call)
				if sig == nil {
					return true
				}
				res := sig.Results()
				for i := 0; i < res.Len() && i < len(n.Lhs); i++ {
					if !isErrorType(res.At(i).Type()) {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						check(call, "is discarded with _")
					}
				}
			}
			return true
		})
	}
}

// calleePackage resolves the package defining the called function or
// method, and the callee's name.
func (p *Pass) calleePackage(call *ast.CallExpr) (*types.Package, string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := p.Info.Uses[fun].(*types.Func); ok {
			return obj.Pkg(), obj.Name()
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f.Pkg(), f.Name()
			}
			return nil, ""
		}
		// Package-qualified call: pkg.Func().
		if obj, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return obj.Pkg(), obj.Name()
		}
	}
	return nil, ""
}

func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	t := info.Types[call.Fun].Type
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

func callReturnsError(info *types.Info, call *ast.CallExpr) bool {
	sig := callSignature(info, call)
	if sig == nil || sig.Results().Len() == 0 {
		return false
	}
	return isErrorType(sig.Results().At(sig.Results().Len() - 1).Type())
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error" && types.IsInterface(t)
}

// exprString renders a (small) expression for diagnostics.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "?"
	}
	return buf.String()
}
