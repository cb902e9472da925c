package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
)

// ShiftWidth flags shift expressions whose distance can reach the bit
// width of the shifted operand. Go defines `x << n` as 0 (and signed
// `x >> n` as 0 or -1) once n >= width — no trap, no wraparound — so
// the classic mask idiom `(1 << b) - 1` silently produces an all-zero
// mask at b == 64. PaSTRI's Pb/Sb/ECb bit-width arithmetic lives right
// at that edge: widths are computed from data and legitimately hit 64.
//
// A variable-distance shift is accepted when the distance is provably
// below the operand width:
//
//   - constant distances below the width;
//   - distances masked or reduced on the spot (n & 63, n % 64 for
//     unsigned n);
//   - distances bounded by a dominating check: the shift sits in the
//     then-branch of `if n < 64`, in the else-branch of `if n >= 64`,
//     or after an `if n >= 64 { return/panic/... }` whose body always
//     terminates. Conjunctions, disjunctions and small +/- constant
//     offsets (n-1, n+2) are understood.
//
// Anything else is a finding: either restructure so the bound is
// dominating, or annotate //lint:shiftwidth-ok with the invariant that
// keeps the distance in range.
var ShiftWidth = &Analyzer{
	Name: "shiftwidth",
	Doc:  "flag variable shift distances not provably below the operand width",
	Run:  perPackage(runShiftWidth),
}

func runShiftWidth(p *Pass) {
	for _, f := range p.Files {
		walkStack(f, func(stack []ast.Node, n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.SHL || n.Op == token.SHR {
					tv := p.Info.Types[n]
					if tv.Value != nil { // whole expression is constant-folded
						return true
					}
					p.checkShift(stack, n, n.Y, tv.Type)
				}
			case *ast.AssignStmt:
				if n.Tok == token.SHL_ASSIGN || n.Tok == token.SHR_ASSIGN {
					p.checkShift(stack, n, n.Rhs[0], p.Info.Types[n.Lhs[0]].Type)
				}
			}
			return true
		})
	}
}

// checkShift reports the shift at node unless the distance expression
// amt is provably below the bit width of shifted type t.
func (p *Pass) checkShift(stack []ast.Node, node ast.Node, amt ast.Expr, t types.Type) {
	width := basicWidth(t)
	if width == 0 {
		return // non-basic or generic shifted operand; out of scope
	}
	if max, known := p.distanceMax(stack, node, amt); known && max < int64(width) {
		return
	}
	p.Reportf(node.Pos(),
		"shift distance %q not provably < %d (operand %s); bound it with a dominating check, mask it, or annotate //lint:shiftwidth-ok with the invariant",
		exprString(p.Fset, amt), width, t)
}

// distanceMax computes a best-effort inclusive upper bound for the
// shift distance amt at the given AST location.
func (p *Pass) distanceMax(stack []ast.Node, node ast.Node, amt ast.Expr) (int64, bool) {
	amt = ast.Unparen(amt)
	// Constant distance.
	if tv := p.Info.Types[amt]; tv.Value != nil {
		if v, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok {
			return v, true
		}
		return 0, false
	}
	switch e := amt.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.AND: // n & C  =>  <= C
			if c, ok := p.intConst(e.Y); ok && c >= 0 {
				return c, true
			}
			if c, ok := p.intConst(e.X); ok && c >= 0 {
				return c, true
			}
		case token.REM: // n % C for unsigned n  =>  <= C-1
			if c, ok := p.intConst(e.Y); ok && c > 0 && isUnsigned(p.Info.Types[e.X].Type) {
				return c - 1, true
			}
		case token.ADD, token.SUB: // base ± C: bound the base, then offset
			if c, ok := p.intConst(e.Y); ok {
				if base, known := p.distanceMax(stack, node, e.X); known {
					if e.Op == token.ADD {
						return base + c, true
					}
					return base - c, true
				}
			}
			if c, ok := p.intConst(e.X); ok {
				switch e.Op {
				case token.ADD:
					if base, known := p.distanceMax(stack, node, e.Y); known {
						return base + c, true
					}
				case token.SUB: // C - e: maximized when e is minimal
					if emin, known := p.distanceMin(stack, e.Y); known {
						return c - emin, true
					}
				}
			}
		}
	case *ast.CallExpr: // integer conversion: uint(n)
		if len(e.Args) == 1 && p.Info.Types[e.Fun].IsType() &&
			basicWidth(p.Info.Types[e.Fun].Type) != 0 {
			return p.distanceMax(stack, node, e.Args[0])
		}
	case *ast.Ident:
		obj, ok := p.Info.Uses[e].(*types.Var)
		if !ok {
			return 0, false
		}
		// Type-derived bound: a uint8 distance is below 256 for free.
		if w := basicWidth(obj.Type()); w != 0 && w < 64 && isUnsigned(obj.Type()) {
			if max, known := p.guardMax(stack, node, obj); known {
				if tmax := int64(1)<<w - 1; tmax < max {
					return tmax, true
				}
				return max, true
			}
			return int64(1)<<w - 1, true
		}
		return p.guardMax(stack, node, obj)
	}
	return 0, false
}

func (p *Pass) intConst(e ast.Expr) (int64, bool) {
	tv := p.Info.Types[e]
	if tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}

// guardMax scans the ancestors of node for checks dominating it that
// bound obj from above: enclosing if-branches, earlier terminating
// if-statements in enclosing blocks, tagless-switch case ordering, and
// for-loop variables whose condition or constant start bounds them.
// Reassignment of obj between an if-guard and the shift is not tracked
// — the analyzers trade soundness at that edge for zero dependencies,
// and the fixture suite pins the behavior.
func (p *Pass) guardMax(stack []ast.Node, node ast.Node, obj *types.Var) (int64, bool) {
	best := int64(-1)
	better := func(m int64, ok bool) {
		if ok && (best < 0 || m < best) {
			best = m
		}
	}
	child := ast.Node(node)
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.IfStmt:
			if containsNode(parent.Body, child) {
				better(p.condMax(parent.Cond, obj, true))
			} else if parent.Else != nil && containsNode(parent.Else, child) {
				better(p.condMax(parent.Cond, obj, false))
			}
		case *ast.BlockStmt:
			for _, stmt := range parent.List {
				if stmt == child || containsNode(stmt, child) {
					break
				}
				ifs, ok := stmt.(*ast.IfStmt)
				if !ok || !terminates(ifs.Body) || ifs.Else != nil {
					continue
				}
				better(p.condMax(ifs.Cond, obj, false))
			}
		case *ast.SwitchStmt:
			// In a tagless switch without fallthrough, reaching a
			// clause means every earlier clause's expression was false,
			// and (for non-default clauses) one of its own is true.
			if parent.Tag == nil && !hasFallthrough(parent) {
				for _, stmt := range parent.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						break
					}
					if containsNode(cc, node) {
						better(p.clauseMax(cc, obj))
						break
					}
					for _, e := range cc.List {
						better(p.condMax(e, obj, false))
					}
				}
			}
		case *ast.ForStmt:
			if containsNode(parent.Body, child) {
				better(p.forLoopMax(parent, obj))
			}
		case *ast.FuncLit, *ast.FuncDecl:
			// Guards outside the enclosing function don't dominate
			// goroutine bodies or closures called later.
			if best >= 0 {
				return best, true
			}
			return 0, false
		}
		child = stack[i]
	}
	if best >= 0 {
		return best, true
	}
	return 0, false
}

// clauseMax bounds obj inside a non-default case clause: the clause is
// entered when any of its expressions holds, so every expression must
// yield a bound and the weakest one wins.
func (p *Pass) clauseMax(cc *ast.CaseClause, obj *types.Var) (int64, bool) {
	if len(cc.List) == 0 {
		return 0, false // default clause: no positive information
	}
	worst := int64(-1)
	for _, e := range cc.List {
		m, ok := p.condMax(e, obj, true)
		if !ok {
			return 0, false
		}
		if m > worst {
			worst = m
		}
	}
	return worst, true
}

// forLoopMax bounds a for-loop's own variable inside its body: either
// the condition caps it on every iteration entry, or it starts at a
// constant and only ever decreases. Both require that the body never
// writes the variable.
func (p *Pass) forLoopMax(f *ast.ForStmt, obj *types.Var) (int64, bool) {
	if !p.definesLoopVar(f, obj) || writesVar(p, f.Body, obj) {
		return 0, false
	}
	if f.Cond != nil {
		if m, ok := p.condMax(f.Cond, obj, true); ok {
			return m, true
		}
	}
	if c, ok := p.loopInitConst(f, obj); ok {
		if dec, ok := f.Post.(*ast.IncDecStmt); ok && dec.Tok == token.DEC && p.isUseOf(dec.X, obj) {
			return c, true
		}
	}
	return 0, false
}

// forLoopMin is the mirror image, used to bound C-e distances: the
// condition floors a downward loop, or the variable starts at a
// constant and only ever increases.
func (p *Pass) forLoopMin(f *ast.ForStmt, obj *types.Var) (int64, bool) {
	if !p.definesLoopVar(f, obj) || writesVar(p, f.Body, obj) {
		return 0, false
	}
	if f.Cond != nil {
		if m, ok := p.condMin(f.Cond, obj); ok {
			return m, true
		}
	}
	if c, ok := p.loopInitConst(f, obj); ok {
		if inc, ok := f.Post.(*ast.IncDecStmt); ok && inc.Tok == token.INC && p.isUseOf(inc.X, obj) {
			return c, true
		}
	}
	return 0, false
}

func (p *Pass) definesLoopVar(f *ast.ForStmt, obj *types.Var) bool {
	init, ok := f.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE {
		return false
	}
	for _, lhs := range init.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && p.Info.Defs[id] == types.Object(obj) {
			return true
		}
	}
	return false
}

func (p *Pass) loopInitConst(f *ast.ForStmt, obj *types.Var) (int64, bool) {
	init := f.Init.(*ast.AssignStmt) // checked by definesLoopVar
	for i, lhs := range init.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && p.Info.Defs[id] == types.Object(obj) && i < len(init.Rhs) {
			return p.intConst(init.Rhs[i])
		}
	}
	return 0, false
}

// distanceMin is the lower-bound companion of distanceMax, currently
// covering constants and upward/floored loop variables.
func (p *Pass) distanceMin(stack []ast.Node, e ast.Expr) (int64, bool) {
	e = ast.Unparen(e)
	if v, ok := p.intConst(e); ok {
		return v, true
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj, ok := p.Info.Uses[id].(*types.Var)
	if !ok {
		return 0, false
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ForStmt:
			if m, ok := p.forLoopMin(parent, obj); ok {
				return m, true
			}
		case *ast.FuncLit, *ast.FuncDecl:
			return 0, false
		}
	}
	return 0, false
}

// condMin extracts an inclusive lower bound for obj implied by cond.
func (p *Pass) condMin(cond ast.Expr, obj *types.Var) (int64, bool) {
	cond = ast.Unparen(cond)
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return 0, false
	}
	if be.Op == token.LAND {
		if m, ok := p.condMin(be.X, obj); ok {
			return m, true
		}
		return p.condMin(be.Y, obj)
	}
	op := be.Op
	var cexpr ast.Expr
	if p.isUseOf(be.X, obj) {
		cexpr = be.Y
	} else if p.isUseOf(be.Y, obj) {
		cexpr = be.X
		switch op {
		case token.LSS:
			op = token.GTR
		case token.LEQ:
			op = token.GEQ
		case token.GTR:
			op = token.LSS
		case token.GEQ:
			op = token.LEQ
		}
	} else {
		return 0, false
	}
	c, ok := p.intConst(cexpr)
	if !ok {
		return 0, false
	}
	switch op {
	case token.GTR: // obj > c
		return c + 1, true
	case token.GEQ, token.EQL: // obj >= c, obj == c
		return c, true
	}
	return 0, false
}

func hasFallthrough(s *ast.SwitchStmt) bool {
	found := false
	ast.Inspect(s.Body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.FALLTHROUGH {
			found = true
		}
		return !found
	})
	return found
}

// writesVar reports whether any assignment or inc/dec under root
// (including nested function literals) targets obj.
func writesVar(p *Pass, root ast.Node, obj *types.Var) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if p.isUseOf(lhs, obj) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if p.isUseOf(n.X, obj) {
				found = true
			}
		case *ast.UnaryExpr:
			// Taking the address may alias the variable; be conservative.
			if n.Op == token.AND && p.isUseOf(n.X, obj) {
				found = true
			}
		}
		return !found
	})
	return found
}

// condMax extracts an inclusive upper bound for obj implied by cond
// (when positive is true) or by !cond (when positive is false).
func (p *Pass) condMax(cond ast.Expr, obj *types.Var, positive bool) (int64, bool) {
	cond = ast.Unparen(cond)
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return 0, false
	}
	// Boolean structure: cond=a&&b implies both; !(a||b) implies !a and !b.
	if (positive && be.Op == token.LAND) || (!positive && be.Op == token.LOR) {
		mx, okx := p.condMax(be.X, obj, positive)
		my, oky := p.condMax(be.Y, obj, positive)
		switch {
		case okx && oky:
			return min(mx, my), true
		case okx:
			return mx, true
		case oky:
			return my, true
		}
		return 0, false
	}
	// Normalize to: obj OP const.
	op := be.Op
	var cexpr ast.Expr
	if p.isUseOf(be.X, obj) {
		cexpr = be.Y
	} else if p.isUseOf(be.Y, obj) {
		cexpr = be.X
		switch op { // flip the relation
		case token.LSS:
			op = token.GTR
		case token.LEQ:
			op = token.GEQ
		case token.GTR:
			op = token.LSS
		case token.GEQ:
			op = token.LEQ
		}
	} else {
		return 0, false
	}
	c, ok := p.intConst(cexpr)
	if !ok {
		return 0, false
	}
	if positive {
		switch op {
		case token.LSS: // obj < c
			return c - 1, true
		case token.LEQ, token.EQL: // obj <= c, obj == c
			return c, true
		}
	} else {
		switch op {
		case token.GTR: // !(obj > c)
			return c, true
		case token.GEQ: // !(obj >= c)
			return c - 1, true
		case token.NEQ: // !(obj != c)
			return c, true
		}
	}
	return 0, false
}

func (p *Pass) isUseOf(e ast.Expr, obj *types.Var) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		// Tolerate a single integer conversion: uint(n) < 64.
		if call, isCall := ast.Unparen(e).(*ast.CallExpr); isCall &&
			len(call.Args) == 1 && p.Info.Types[call.Fun].IsType() {
			id, ok = ast.Unparen(call.Args[0]).(*ast.Ident)
		}
		if !ok {
			return false
		}
	}
	return p.Info.Uses[id] == obj
}

// terminates reports whether a block always transfers control out
// (return, branch, panic, os.Exit, log.Fatal*).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			return fun.Name == "panic"
		case *ast.SelectorExpr:
			if x, ok := fun.X.(*ast.Ident); ok {
				return (x.Name == "os" && fun.Sel.Name == "Exit") ||
					(x.Name == "log" && len(fun.Sel.Name) >= 5 && fun.Sel.Name[:5] == "Fatal")
			}
		}
	}
	return false
}

func containsNode(root, target ast.Node) bool {
	if root == nil {
		return false
	}
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

func basicWidth(t types.Type) int {
	if t == nil {
		return 0
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return 0
	}
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	case types.Int64, types.Uint64:
		return 64
	case types.Int, types.Uint:
		return strconv.IntSize
	case types.Uintptr:
		return strconv.IntSize
	}
	return 0
}

func isUnsigned(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned != 0
}
