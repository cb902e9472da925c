package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicMix guards the core invariant of the lock-free telemetry
// collector: a struct field that participates in sync/atomic
// operations anywhere in the module must never also be touched by a
// plain load or store — mixed access is a data race the race detector
// only catches when the interleaving actually happens under -race.
//
// The analyzer runs in two passes over the whole module: first it
// collects every struct field whose address is passed to a sync/atomic
// function (atomic.AddUint64(&c.hits, 1), atomic.LoadPointer(&s.head),
// ...); then it flags every other selector of those fields that is not
// itself an atomic-call operand. Initialization before the struct is
// shared (constructors, tests) is a legitimate exception — annotate it
// with //lint:atomicmix-ok and say why the value is not yet visible to
// other goroutines.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "flag struct fields accessed both via sync/atomic and by plain loads/stores",
	Run:  runAtomicMix,
}

func runAtomicMix(p *Pass) {
	// Pass 1: fields used atomically, with one representative site for
	// the diagnostic text.
	atomicFields := make(map[*types.Var]token.Pos)
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isAtomicCall(pkg.Info, call) {
					return true
				}
				for _, arg := range call.Args {
					if fv := addressedField(pkg.Info, arg); fv != nil {
						if _, seen := atomicFields[fv]; !seen {
							atomicFields[fv] = call.Pos()
						}
					}
				}
				return true
			})
		}
	}
	if len(atomicFields) == 0 {
		return
	}
	// Pass 2: plain accesses of those fields.
	for _, pkg := range p.Packages {
		for _, f := range pkg.Files {
			walkStack(f, func(stack []ast.Node, n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fv := fieldOf(pkg.Info, sel)
				if fv == nil {
					return true
				}
				site, isAtomic := atomicFields[fv]
				if !isAtomic || isAtomicOperand(pkg.Info, stack) {
					return true
				}
				p.Reportf(sel.Pos(),
					"struct field %s is accessed with sync/atomic at %s; this plain access races with those atomics — use the atomic API or annotate //lint:atomicmix-ok",
					fv.Name(), p.PositionString(site))
				return true
			})
		}
	}
}

// isAtomicCall reports whether call invokes a package-level function
// of sync/atomic. Methods of the atomic.Int64-style wrapper types
// don't count: fields of those types cannot be touched non-atomically
// without going through the same wrapper.
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if _, isMethod := info.Selections[sel]; isMethod {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && f.Pkg() != nil && f.Pkg().Path() == "sync/atomic"
}

// addressedField resolves &x.f (parens allowed) to the field's object.
func addressedField(info *types.Info, arg ast.Expr) *types.Var {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil
	}
	sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return fieldOf(info, sel)
}

// fieldOf returns the struct-field object a selector denotes, or nil.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// isAtomicOperand reports whether the innermost enclosing context of
// the current node (per the walk stack) is `&<sel>` passed directly to
// a sync/atomic call — the sanctioned access shape skipped by pass 2.
func isAtomicOperand(info *types.Info, stack []ast.Node) bool {
	// stack is outermost-first and excludes the selector itself; scan
	// inward past parens for UnaryExpr(&) then CallExpr(atomic).
	i := len(stack) - 1
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			i--
			continue
		}
		break
	}
	if i < 0 {
		return false
	}
	un, ok := stack[i].(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return false
	}
	i--
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			i--
			continue
		}
		break
	}
	if i < 0 {
		return false
	}
	call, ok := stack[i].(*ast.CallExpr)
	return ok && isAtomicCall(info, call)
}
