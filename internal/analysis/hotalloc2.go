package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/flow"
)

// HotAlloc2 is the interprocedural successor of the first-generation
// hotalloc analyzer: it guards the zero-allocation contract of the
// block kernels across call boundaries. A function is hot if its doc
// comment carries //pastri:hotpath or if it is reachable from a marked
// function through the flow engine's call graph (static calls,
// interface dispatch by class hierarchy, function values by signature
// match) — so a make buried two helpers below a kernel no longer sails
// through.
//
// Inside a hot function (including nested function literals) the
// analyzer flags:
//
//   - any call to the builtin make;
//   - append into a freshly created slice (composite literal,
//     conversion, call result);
//   - append whose result does not feed back into its destination;
//   - append onto a slice variable that is still nil from its local
//     declaration on some path (solved with a may-analysis on the CFG:
//     the first such append allocates the backing array on every call);
//   - function literals that capture variables (a closure allocates);
//   - implicit interface conversions at call arguments and explicit
//     conversions to interface types (boxing allocates);
//   - non-constant string concatenation.
//
// Two exemptions keep the signal-to-noise ratio honest. Boxing and
// concatenation inside a return statement or a panic argument are not
// flagged: those expressions run at most once per call — in practice on
// error exits (`return fmt.Errorf(...)`, `panic(fmt.Sprintf(...))`) —
// so they are not a per-iteration cost. And converting a
// pointer-shaped value (pointer, channel, map, function) to an
// interface is not flagged at all: the value fits the interface data
// word directly and the conversion does not allocate.
//
// Findings inherited by reachability carry the propagation chain from
// the marked root.
var HotAlloc2 = &Analyzer{
	Name: "hotalloc2",
	Doc:  "flag allocations (make/append/closures/boxing/string concat) in or reachable from //pastri:hotpath functions",
	Run:  runHotAlloc2,
}

func runHotAlloc2(p *Pass) {
	hot, from := p.Program.Hot()
	for _, fn := range p.Program.Funcs() {
		if !hot[fn] {
			continue
		}
		where := fn.Obj.Name()
		if chain := flow.Chain(from, fn); chain != "" {
			where = fn.Obj.Name() + " (hot via " + chain + ")"
		}
		c := &hotChecker{p: p, fn: fn, where: where, info: fn.Pkg.Info}
		c.check()
	}
}

type hotChecker struct {
	p     *Pass
	fn    *flow.Func
	where string // "name" or "name (hot via root → ... → name)"
	info  *types.Info
}

func (c *hotChecker) check() {
	body := c.fn.Decl.Body
	walkStack(body, func(stack []ast.Node, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.checkCall(stack, n)
		case *ast.FuncLit:
			c.checkClosure(n)
		case *ast.BinaryExpr:
			c.checkStringConcat(stack, n)
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(c.info.TypeOf(n.Lhs[0])) {
				c.p.Reportf(n.Pos(),
					"string += in hot function %s allocates on every call; use a reusable []byte or strings.Builder outside the hot path, or annotate //lint:hotalloc2-ok",
					c.where)
			}
		}
		return true
	})
	// CFG pass: appends onto locally-nil slices, per body (the
	// declaration body and every nested literal get their own graphs).
	c.checkNilAppends(body)
	for _, fl := range flow.FuncLitsIn(c.fn.Decl) {
		c.checkNilAppends(fl.Body)
	}
}

func (c *hotChecker) checkCall(stack []ast.Node, call *ast.CallExpr) {
	switch c.builtinName(call) {
	case "make":
		c.p.Reportf(call.Pos(),
			"make in hot function %s allocates on every call; hoist into reusable scratch or annotate //lint:hotalloc2-ok",
			c.where)
		return
	case "append":
		if len(call.Args) == 0 {
			return
		}
		if isFreshSlice(ast.Unparen(call.Args[0])) {
			c.p.Reportf(call.Pos(),
				"append into a fresh slice in hot function %s allocates on every call; append in place into reusable scratch or annotate //lint:hotalloc2-ok",
				c.where)
			return
		}
		if !c.appendInPlace(stack, call) {
			c.p.Reportf(call.Pos(),
				"append result in hot function %s does not feed back into its destination; use x = append(x, ...) on reusable scratch or annotate //lint:hotalloc2-ok",
				c.where)
		}
		return
	case "":
		// Not a builtin: interface boxing at arguments, below.
	default:
		return
	}
	if c.coldExit(stack) {
		return // boxing on a return/panic path is not per-iteration
	}
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() {
		// Explicit conversion T(x): flag conversions to interfaces.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := c.info.TypeOf(call.Args[0]); concreteBoxed(at) {
				c.p.Reportf(call.Pos(),
					"conversion of %s to interface %s in hot function %s allocates (boxing); keep concrete types on the hot path or annotate //lint:hotalloc2-ok",
					at, tv.Type, c.where)
			}
		}
		return
	}
	sig, ok := typeAsSignature(c.info.TypeOf(call.Fun))
	if !ok || call.Ellipsis != token.NoPos {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			slice, ok := sig.Params().At(np - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		if at := c.info.TypeOf(arg); concreteBoxed(at) {
			c.p.Reportf(arg.Pos(),
				"argument converts %s to interface %s in hot function %s; boxing allocates per call — keep concrete types or annotate //lint:hotalloc2-ok",
				at, pt, c.where)
		}
	}
}

// checkClosure flags function literals that capture enclosing
// variables: constructing such a closure allocates.
func (c *hotChecker) checkClosure(fl *ast.FuncLit) {
	decl := c.fn.Decl
	captured := map[string]bool{}
	var names []string
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared inside the enclosing declaration but
		// outside this literal.
		if v.Pos() >= decl.Pos() && v.Pos() < decl.End() &&
			!(v.Pos() >= fl.Pos() && v.Pos() < fl.End()) {
			if !captured[v.Name()] {
				captured[v.Name()] = true
				names = append(names, v.Name())
			}
		}
		return true
	})
	if len(names) > 0 {
		c.p.Reportf(fl.Pos(),
			"function literal captures %s in hot function %s; constructing the closure allocates per call — hoist it or annotate //lint:hotalloc2-ok",
			strings.Join(names, ", "), c.where)
	}
}

func (c *hotChecker) checkStringConcat(stack []ast.Node, be *ast.BinaryExpr) {
	if be.Op != token.ADD || !isStringType(c.info.TypeOf(be)) {
		return
	}
	if tv, ok := c.info.Types[be]; ok && tv.Value != nil {
		return // constant-folded at compile time
	}
	if c.coldExit(stack) {
		return
	}
	c.p.Reportf(be.Pos(),
		"string concatenation in hot function %s allocates on every call; precompute or use reusable scratch, or annotate //lint:hotalloc2-ok",
		c.where)
}

// --- CFG may-analysis: appends onto locally-nil slices -------------------

// freshFact is the set of slice variables that may still hold their
// zero (nil) value from a local declaration. Join is union: if any
// path reaches an append with the variable nil, the append allocates
// on that path.
type freshFact map[*types.Var]bool

type freshLattice struct{}

func (freshLattice) Bottom() freshFact { return nil }

func (freshLattice) Join(a, b freshFact) freshFact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(freshFact, len(a)+len(b))
	for v := range a {
		out[v] = true
	}
	for v := range b {
		out[v] = true
	}
	return out
}

func (freshLattice) Equal(a, b freshFact) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// checkNilAppends runs the nil-slice may-analysis over one body and
// reports in-place appends whose base may still be the locally
// declared nil slice.
func (c *hotChecker) checkNilAppends(body *ast.BlockStmt) {
	g := flow.New(body)
	facts := flow.Forward[freshFact](g, freshLattice{}, func(b *flow.Block, in freshFact) freshFact {
		return c.freshTransfer(b, in, nil)
	})
	reach := g.Reachable()
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		c.freshTransfer(b, facts.In[b], func(v *types.Var, call *ast.CallExpr) {
			c.p.Reportf(call.Pos(),
				"append onto %s, which is still the locally-declared nil slice on some path, allocates a new backing array on every call of hot function %s; use caller-provided or pooled scratch or annotate //lint:hotalloc2-ok",
				v.Name(), c.where)
		})
	}
}

// freshTransfer interprets one block's statements over the fresh-set
// fact. When report is non-nil it also fires for each in-place append
// whose base is currently fresh (the reporting replay).
func (c *hotChecker) freshTransfer(b *flow.Block, in freshFact, report func(*types.Var, *ast.CallExpr)) freshFact {
	out := make(freshFact, len(in))
	for v := range in {
		out[v] = true
	}
	for _, s := range b.Stmts {
		for _, node := range flow.BlockNodes(s) {
			ast.Inspect(node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false // separate body, separate analysis
				case *ast.DeclStmt:
					gd, ok := n.Decl.(*ast.GenDecl)
					if !ok {
						return true
					}
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok || len(vs.Values) != 0 {
							continue
						}
						for _, name := range vs.Names {
							if v := c.sliceVar(name); v != nil {
								out[v] = true // var s []T: nil
							}
						}
					}
				case *ast.AssignStmt:
					c.freshAssign(n, out, report)
					return true
				}
				return true
			})
		}
	}
	return out
}

// freshAssign updates the fresh set for one assignment and fires
// report for in-place appends on fresh bases.
func (c *hotChecker) freshAssign(as *ast.AssignStmt, out freshFact, report func(*types.Var, *ast.CallExpr)) {
	if len(as.Lhs) != len(as.Rhs) {
		// Multi-value assignment from a call: targets are no longer
		// known-nil.
		for _, lhs := range as.Lhs {
			if v := c.sliceVarExpr(lhs); v != nil {
				delete(out, v)
			}
		}
		return
	}
	for i, lhs := range as.Lhs {
		v := c.sliceVarExpr(lhs)
		rhs := ast.Unparen(as.Rhs[i])
		// Appends: report if the base is fresh, then mark the target
		// non-fresh (the backing array now exists; one finding per
		// chain is enough).
		if call, ok := rhs.(*ast.CallExpr); ok && c.builtinName(call) == "append" && len(call.Args) > 0 {
			if base := c.sliceVarExpr(sliceBase(call.Args[0])); base != nil && out[base] {
				if report != nil {
					report(base, call)
				}
				delete(out, base)
			}
			if v != nil {
				delete(out, v)
			}
			continue
		}
		if v == nil {
			continue
		}
		if isNilIdent(rhs) {
			out[v] = true // s = nil: back to fresh
		} else {
			delete(out, v)
		}
	}
}

// sliceVar resolves a defining or using identifier to its *types.Var
// if it names a local variable of slice type.
func (c *hotChecker) sliceVar(id *ast.Ident) *types.Var {
	var obj types.Object
	if d, ok := c.info.Defs[id]; ok {
		obj = d
	} else {
		obj = c.info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Slice); !ok {
		return nil
	}
	return v
}

func (c *hotChecker) sliceVarExpr(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return c.sliceVar(id)
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// --- helpers ---------------------------------------------------------------

// builtinName returns the name of the builtin being called, or "" if
// call is not a direct builtin invocation.
func (c *hotChecker) builtinName(call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := c.info.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}

// isFreshSlice reports whether e creates a slice at the point of use: a
// composite literal or any call result (conversions like []T(nil) and
// make(...) parse as calls). Identifiers, selectors, index and slice
// expressions refer to existing backing arrays and are not fresh.
func isFreshSlice(e ast.Expr) bool {
	switch e.(type) {
	case *ast.CompositeLit, *ast.CallExpr:
		return true
	}
	return false
}

// appendInPlace reports whether call sits on the right-hand side of an
// assignment whose matching left-hand side is the same expression as
// the append destination's base (slicing and parens stripped), i.e. the
// canonical `x = append(x, ...)` / `*p = append((*p)[:0], ...)` shapes.
func (c *hotChecker) appendInPlace(stack []ast.Node, call *ast.CallExpr) bool {
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
	as, ok := stack[i].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for j, rhs := range as.Rhs {
		if ast.Unparen(rhs) != ast.Expr(call) {
			continue
		}
		lhs := exprString(c.p.Fset, ast.Unparen(as.Lhs[j]))
		base := exprString(c.p.Fset, sliceBase(call.Args[0]))
		return lhs == base
	}
	return false
}

// coldExit reports whether the node the stack leads to sits inside a
// return statement or a panic argument of the innermost function body —
// paths that execute at most once per call, typically error exits.
// The scan stops at a function-literal boundary: an expression inside a
// literal is not on the enclosing function's exit path.
func (c *hotChecker) coldExit(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			if c.builtinName(n) == "panic" {
				return true
			}
		}
	}
	return false
}

// sliceBase strips parens and slicing from e: (*p)[:0] -> *p, x[:n] -> x.
func sliceBase(e ast.Expr) ast.Expr {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		default:
			return e
		}
	}
}

// typeAsSignature unwraps a call operand's type to its signature.
func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// concreteBoxed reports whether converting a value of type t to an
// interface allocates: t must be a real, non-interface type (not
// untyped nil) that does not already fit the interface data word.
// Pointers, channels, maps, functions, and unsafe.Pointer are stored
// directly, so converting them is free.
func concreteBoxed(t types.Type) bool {
	if t == nil || types.IsInterface(t) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch u.Kind() {
		case types.UntypedNil, types.Invalid, types.UnsafePointer:
			return false
		}
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
