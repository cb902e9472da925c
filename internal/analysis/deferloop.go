package analysis

import (
	"go/ast"

	"repro/internal/analysis/flow"
)

// DeferLoop flags defer statements that execute inside a loop of a
// hot-path function. Each iteration pushes another record onto the
// defer stack that only unwinds at function return: on a per-block
// kernel that is both an allocation and an O(iterations) memory hold.
// "Inside a loop" is decided on the control-flow graph — a defer in a
// block that lies on a CFG cycle — so loops spelled with goto/labels
// are caught and defers merely lexically near a loop are not. The hot
// set is the same interprocedural one hotalloc2 uses: marked functions
// plus everything reachable from one through the call graph.
//
// A defer inside a function literal is attributed to the literal (it
// runs when the closure returns), so a closure called once per
// iteration is clean unless its own body loops.
var DeferLoop = &Analyzer{
	Name: "deferloop",
	Doc:  "flag defer inside loops (CFG cycles) of hot-path functions",
	Run:  runDeferLoop,
}

func runDeferLoop(p *Pass) {
	hot, from := p.Program.Hot()
	for _, fn := range p.Program.Funcs() {
		if !hot[fn] {
			continue
		}
		where := fn.Obj.Name()
		if chain := flow.Chain(from, fn); chain != "" {
			where = fn.Obj.Name() + " (hot via " + chain + ")"
		}
		bodies := []*ast.BlockStmt{fn.Decl.Body}
		for _, fl := range flow.FuncLitsIn(fn.Decl) {
			bodies = append(bodies, fl.Body)
		}
		for _, body := range bodies {
			reportDefersInCycles(p, body, where)
		}
	}
}

func reportDefersInCycles(p *Pass, body *ast.BlockStmt, where string) {
	g := flow.New(body)
	cyc := g.InCycle()
	if len(cyc) == 0 {
		return
	}
	reach := g.Reachable()
	for _, b := range g.Blocks {
		if !cyc[b] || !reach[b] {
			continue
		}
		for _, s := range b.Stmts {
			// Block statement lists are flat, so a direct type check is
			// exact: defers in nested literals live in other graphs.
			if ds, ok := s.(*ast.DeferStmt); ok {
				p.Reportf(ds.Pos(),
					"defer inside a loop in hot function %s: the defer stack grows every iteration and unwinds only at return; call directly or hoist the loop body into a function, or annotate //lint:deferloop-ok",
					where)
			}
		}
	}
}
