package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/flow"
)

// DetLint guards the determinism contract from the parallel-pipeline
// PR: compressed output is byte-identical at any worker count, so
// nothing on an output path may depend on map iteration order,
// wall-clock time, random numbers, or which goroutine happens to finish
// first. The analyzer computes the set of functions reachable (via the
// flow call graph) from the output roots — any function whose name
// starts with Compress, and every method of StreamWriter — and
// inside that set flags:
//
//   - range over a map (iteration order is randomized per run);
//   - calls into time (Now/Since/Until) — wall-clock values must not
//     steer encoding decisions;
//   - any call into math/rand or math/rand/v2;
//   - select with two or more communication clauses (when several
//     channels are ready the runtime picks pseudo-randomly, so
//     goroutine completion order can leak into output order).
//
// Telemetry and logging legitimately read the clock on these paths;
// such sites carry //lint:detlint-ok markers stating why the value
// cannot reach the output bytes.
var DetLint = &Analyzer{
	Name: "detlint",
	Doc:  "flag nondeterminism (map ranges, clock, rand, racy selects) reachable from Compress*/StreamWriter",
	Run:  runDetLint,
}

// detRoot reports whether fn anchors an output path.
func detRoot(fn *flow.Func) bool {
	if strings.HasPrefix(fn.Obj.Name(), "Compress") {
		return true
	}
	recv := fn.Obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "StreamWriter"
}

func runDetLint(p *Pass) {
	var roots []*flow.Func
	for _, fn := range p.Program.Funcs() {
		if detRoot(fn) {
			roots = append(roots, fn)
		}
	}
	reached, from := p.Program.ReachFrom(roots)
	for _, fn := range p.Program.Funcs() {
		if !reached[fn] {
			continue
		}
		where := fn.Obj.Name()
		if chain := flow.Chain(from, fn); chain != "" {
			where = fn.Obj.Name() + " (reachable via " + chain + ")"
		}
		checkDeterminism(p, fn, where)
	}
}

func checkDeterminism(p *Pass, fn *flow.Func, where string) {
	info := fn.Pkg.Info
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					p.Reportf(n.Pos(),
						"range over a map in %s: iteration order is nondeterministic and this function is on an output path; iterate a sorted key slice or annotate //lint:detlint-ok",
						where)
				}
			}
		case *ast.CallExpr:
			callee := calleeFunc(info, n)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			switch callee.Pkg().Path() {
			case "time":
				switch callee.Name() {
				case "Now", "Since", "Until":
					p.Reportf(n.Pos(),
						"time.%s in %s feeds an output path; wall-clock values must not steer encoding — restrict to telemetry and annotate //lint:detlint-ok",
						callee.Name(), where)
				}
			case "math/rand", "math/rand/v2":
				p.Reportf(n.Pos(),
					"%s.%s in %s: random values on an output path break byte-identical parallel output; seed deterministically outside or annotate //lint:detlint-ok",
					callee.Pkg().Name(), callee.Name(), where)
			}
		case *ast.SelectStmt:
			comms := 0
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				p.Reportf(n.Pos(),
					"select with %d communication clauses in %s: when several channels are ready the choice is pseudo-random, so goroutine completion order can leak into output — sequence explicitly or annotate //lint:detlint-ok",
					comms, where)
			}
		}
		return true
	})
}

// calleeFunc resolves the called function or method object of a call
// expression, or nil for builtins, conversions and dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
