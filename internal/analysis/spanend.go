package analysis

import (
	"go/ast"
	"go/types"
)

// SpanEnd flags trace spans and pipeline stage timers whose End is not
// guaranteed to run on every exit path. Span.StartChild
// (internal/telemetry/trace) hands back a child span that must be ended
// exactly once; a span that is never ended is exported as "unfinished"
// with zero duration, and a span ended only on the happy path lies
// about latency in exactly the failing requests where traces are most
// wanted. Observer.Stage (internal/telemetry) hands back a StageTimer
// whose End records the stage interval in both the collector and the
// request trace; one whose End is skipped loses the interval in both.
//
// Flagged shapes, matched structurally by name so fixtures and future
// tracer types are covered without importing the telemetry packages:
// a method named StartChild on a type named Span returning a type
// named Span, or a method named Stage on a type named Observer
// returning a type named StageTimer, where the result has an End
// method.
//
//   - the span or timer dropped outright (bare call, or assigned to _);
//   - chained sp.StartChild(...).End() in one statement — the span
//     brackets nothing;
//   - v := sp.StartChild(...) where the enclosing function neither
//     defers v.End() nor ends the span on the straight line: a plain
//     v.End() must follow in the definition's own statement list, and
//     every return between the two must be preceded by a v.End() in
//     its innermost block.
//
// A span or timer that escapes — passed to another function, returned,
// stored in a struct or field — is not flagged; ownership moved with
// it. Intentional exceptions (e.g. a timer re-created per loop
// iteration and ended at the top of the next) are annotated
// //lint:spanend-ok.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc:  "flag trace spans and stage timers whose End is skipped on some exit path",
	Run:  perPackage(runSpanEnd),
}

func runSpanEnd(p *Pass) {
	for _, f := range p.Files {
		walkStack(f, func(stack []ast.Node, n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := ast.Unparen(n.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				if kind := p.startedKind(call); kind != "" {
					p.Reportf(call.Pos(), "%s is dropped; its End never runs, so %s", kind, lostIfUnended[kind])
					return true
				}
				if kind := p.endChainKind(call); kind != "" {
					p.Reportf(call.Pos(),
						"%s is started and ended in the same statement; it brackets nothing — bind it and End after the work", kind)
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok {
						continue
					}
					kind := p.startedKind(call)
					if kind == "" {
						continue
					}
					id, ok := n.Lhs[i].(*ast.Ident)
					if !ok {
						continue // stored into a field/element: escapes
					}
					if id.Name == "_" {
						p.Reportf(call.Pos(), "%s is discarded with _; its End never runs, so %s", kind, lostIfUnended[kind])
						continue
					}
					v := p.definedOrUsedVar(id)
					body := enclosingFuncBody(stack)
					if v == nil || body == nil {
						continue
					}
					if p.spanEndDeferred(body, v) || p.spanEscapes(body, v) {
						continue
					}
					p.checkStraightLineEnd(stack, n, v, kind)
				}
			}
			return true
		})
	}
}

// lostIfUnended says, per kind, what an End that never runs costs.
var lostIfUnended = map[string]string{
	"span":        "it is exported as an unfinished span",
	"stage timer": "the stage interval is never recorded",
}

// checkStraightLineEnd enforces the non-deferred discipline for a span
// or timer (kind) defined by assign: a plain v.End() later in the same
// statement list, with every return in between ended in its own
// innermost block.
func (p *Pass) checkStraightLineEnd(stack []ast.Node, assign *ast.AssignStmt, v *types.Var, kind string) {
	var list []ast.Stmt
	if len(stack) > 0 {
		list = stmtList(stack[len(stack)-1])
	}
	defIdx := -1
	for i, s := range list {
		if s == ast.Stmt(assign) {
			defIdx = i
			break
		}
	}
	if defIdx < 0 {
		// Defined somewhere without a statement list (if-init, etc.):
		// too exotic for straight-line proof — demand a defer.
		p.Reportf(assign.Pos(),
			"%s %q needs defer %s.End(); its definition site has no straight-line End position", kind, v.Name(), v.Name())
		return
	}
	endIdx := -1
	for j := defIdx + 1; j < len(list); j++ {
		if p.isPlainEndStmt(list[j], v) {
			endIdx = j
			break
		}
	}
	if endIdx < 0 {
		p.Reportf(assign.Pos(),
			"%s %q is never ended on this path; defer %s.End() or end it before every exit (or annotate //lint:spanend-ok)",
			kind, v.Name(), v.Name())
		return
	}
	for j := defIdx + 1; j < endIdx; j++ {
		p.checkReturnsEnd(list[j], v, kind)
	}
}

// checkReturnsEnd flags every return nested in stmt that is not
// preceded by a plain v.End() in its innermost statement list. Returns
// inside function literals belong to a different function and are
// skipped.
func (p *Pass) checkReturnsEnd(stmt ast.Stmt, v *types.Var, kind string) {
	walkStack(stmt, func(stack []ast.Node, n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for i := len(stack) - 1; i >= 0; i-- {
			list := stmtList(stack[i])
			if list == nil {
				continue
			}
			ended := false
			for _, s := range list {
				if s == ast.Stmt(ret) {
					break
				}
				if p.isPlainEndStmt(s, v) {
					ended = true
				}
			}
			if !ended {
				p.Reportf(ret.Pos(),
					"return without ending %s %q; call %s.End() before this return or defer it",
					kind, v.Name(), v.Name())
			}
			return true // only the innermost statement list counts
		}
		return true
	})
}

// stmtList returns the statement list a node directly carries, if any.
func stmtList(n ast.Node) []ast.Stmt {
	switch b := n.(type) {
	case *ast.BlockStmt:
		return b.List
	case *ast.CaseClause:
		return b.Body
	case *ast.CommClause:
		return b.Body
	}
	return nil
}

// isPlainEndStmt reports whether s is the statement `v.End()`.
func (p *Pass) isPlainEndStmt(s ast.Stmt, v *types.Var) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	return ok && p.isEndCallOn(call, v)
}

// startedKind reports what call starts: "span" for a method StartChild
// on a type named Span returning a type named Span, "stage timer" for a
// method Stage on a type named Observer returning a type named
// StageTimer — in both cases a single result with an End method — and
// "" for anything else. StartRequest roots are excluded: they are
// ended by the tracer's FinishRequest, not by End.
func (p *Pass) startedKind(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "StartChild" && sel.Sel.Name != "Stage" {
		return ""
	}
	s, ok := p.Info.Selections[sel]
	if !ok {
		return ""
	}
	sig, ok := s.Obj().Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 1 {
		return ""
	}
	recv, res := sig.Recv().Type(), sig.Results().At(0).Type()
	switch {
	case !hasNiladicMethod(res, "End"):
	case sel.Sel.Name == "StartChild" && namedTypeIs(recv, "Span") && namedTypeIs(res, "Span"):
		return "span"
	case sel.Sel.Name == "Stage" && namedTypeIs(recv, "Observer") && namedTypeIs(res, "StageTimer"):
		return "stage timer"
	}
	return ""
}

// endChainKind reports what `<start call>.End()` starts and ends in one
// statement ("" if call is not such a chain).
func (p *Pass) endChainKind(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return ""
	}
	inner, ok := ast.Unparen(sel.X).(*ast.CallExpr)
	if !ok {
		return ""
	}
	return p.startedKind(inner)
}

// spanEndDeferred reports whether body defers v.End(), either directly
// or inside a deferred function literal.
func (p *Pass) spanEndDeferred(body ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if p.isEndCallOn(d.Call, v) {
			found = true
			return false
		}
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && p.isEndCallOn(call, v) {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// spanEscapes reports whether v is used for anything other than method
// calls on it, reassignment or assignment to _ — passed as an argument,
// returned, stored in a field, captured as a method value. Escaped spans are the
// recipient's responsibility (the analyzer checks that site instead).
func (p *Pass) spanEscapes(body ast.Node, v *types.Var) bool {
	escaped := false
	walkStack(body, func(stack []ast.Node, n ast.Node) bool {
		if escaped {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || p.Info.Uses[id] != types.Object(v) {
			return true
		}
		if len(stack) == 0 {
			escaped = true
			return false
		}
		switch parent := stack[len(stack)-1].(type) {
		case *ast.SelectorExpr:
			// v.Method(...) in receiver position is fine — End,
			// SetError, Annotate all stay local. A bare method value
			// (v.End handed off uncalled) escapes.
			if parent.X == ast.Expr(id) && len(stack) >= 2 {
				if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == ast.Expr(parent) {
					return true
				}
			}
		case *ast.AssignStmt:
			// Re-binding the same variable to a fresh span is a define
			// site, not an escape, and `_ = v` hands the span to no one:
			// it neither escapes nor ends it.
			for i, lhs := range parent.Lhs {
				if lhs == ast.Expr(id) {
					return true
				}
				if blank, ok := lhs.(*ast.Ident); ok && blank.Name == "_" &&
					len(parent.Lhs) == len(parent.Rhs) && ast.Unparen(parent.Rhs[i]) == ast.Expr(id) {
					return true
				}
			}
		}
		escaped = true
		return false
	})
	return escaped
}

// isEndCallOn reports whether call is `v.End()`.
func (p *Pass) isEndCallOn(call *ast.CallExpr, v *types.Var) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && p.Info.Uses[id] == types.Object(v)
}

// hasNiladicMethod reports whether t has a parameterless method name.
func hasNiladicMethod(t types.Type, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	f, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := f.Type().(*types.Signature)
	return sig.Params().Len() == 0
}

// definedOrUsedVar resolves id whether it is a := definition or an
// assignment to an existing variable.
func (p *Pass) definedOrUsedVar(id *ast.Ident) *types.Var {
	if v, ok := p.Info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := p.Info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// enclosingFuncBody returns the body of the innermost enclosing
// function declaration or literal on the ancestor stack.
func enclosingFuncBody(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// namedTypeIs reports whether t (possibly behind a pointer) is a
// defined type with the given name.
func namedTypeIs(t types.Type, name string) bool {
	if pt, ok := t.(*types.Pointer); ok {
		t = pt.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}
