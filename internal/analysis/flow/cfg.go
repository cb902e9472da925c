// Package flow is a stdlib-only control- and data-flow engine for the
// pastrilint analyzer suite: a control-flow-graph builder over go/ast,
// a generic worklist fixpoint solver, and a class-hierarchy call graph
// with transitive propagation of the //pastri:hotpath directive. The
// first-generation analyzers in internal/analysis are single-function
// AST walks; everything interprocedural (an allocation two calls below
// a hot kernel, nondeterminism feeding the parallel sequencer) needs
// the structures built here.
//
// Like internal/analysis itself, the package is built only on
// go/ast + go/types so the module keeps zero external dependencies.
package flow

import (
	"go/ast"
	"go/token"
)

// A Block is one straight-line run of statements in a Graph. Control
// enters at the first statement and leaves at the last; Succs are the
// possible successor blocks. Compound statements (if/for/switch/...)
// appear in the block where their guard is evaluated, while their
// bodies live in successor blocks.
type Block struct {
	Index int
	Stmts []ast.Stmt
	Succs []*Block
	Preds []*Block
}

// A Graph is the control-flow graph of one function body. Entry is the
// first block executed; Exit is a synthetic block reached by returns,
// panics and falling off the end. Blocks holds every block created,
// including unreachable ones (statements after a return keep a block so
// analyzers can still see them).
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// New builds the control-flow graph of body. Function literals nested
// inside body are treated as opaque values: their own bodies get their
// own graphs via a separate New call. The builder never panics on
// syntactically valid but semantically broken input (break outside a
// loop, goto to a missing label, fallthrough in the last case): such
// edges are simply dropped, matching the fuzzer's contract.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, labels: make(map[string]*labelInfo)}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmtList(body.List)
	// Falling off the end of the body reaches the exit.
	b.edge(b.cur, b.g.Exit)
	b.resolveGotos()
	return b.g
}

// labelInfo tracks one label's targets: the labeled statement's block
// (for goto), plus break/continue targets when the label names a loop,
// switch or select.
type labelInfo struct {
	block      *Block // block the labeled statement starts in
	breakTo    *Block
	continueTo *Block
}

// loopScope is one enclosing breakable/continuable construct.
type loopScope struct {
	breakTo    *Block
	continueTo *Block // nil for switch/select scopes
	label      string
}

type builder struct {
	g      *Graph
	cur    *Block
	scopes []loopScope
	labels map[string]*labelInfo
	gotos  []pendingGoto
	// pendingLabel carries a just-seen label name into the immediately
	// following loop/switch statement so labeled break/continue resolve.
	pendingLabel string
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// startBlock makes blk the current block.
func (b *builder) startBlock(blk *Block) { b.cur = blk }

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) add(s ast.Stmt) {
	b.cur.Stmts = append(b.cur.Stmts, s)
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.add(s) // init + cond evaluate here
		condBlock := b.cur
		after := b.newBlock()
		then := b.newBlock()
		b.edge(condBlock, then)
		b.startBlock(then)
		b.stmtList(s.Body.List)
		b.edge(b.cur, after)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(condBlock, els)
			b.startBlock(els)
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(condBlock, after)
		}
		b.startBlock(after)

	case *ast.ForStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(b.cur, head)
		b.startBlock(head)
		b.add(s) // cond evaluates each iteration
		body := b.newBlock()
		after := b.newBlock()
		post := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		b.setLabelTargets(label, head, after, post)
		b.pushScope(loopScope{breakTo: after, continueTo: post, label: label})
		b.startBlock(body)
		b.stmtList(s.Body.List)
		b.popScope()
		b.edge(b.cur, post)
		b.startBlock(post)
		if s.Post != nil {
			b.add(s.Post)
		}
		b.edge(post, head)
		b.startBlock(after)

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(b.cur, head)
		b.startBlock(head)
		b.add(s) // the range expression + per-iteration assignment
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.setLabelTargets(label, head, after, head)
		b.pushScope(loopScope{breakTo: after, continueTo: head, label: label})
		b.startBlock(body)
		b.stmtList(s.Body.List)
		b.popScope()
		b.edge(b.cur, head)
		b.startBlock(after)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		b.switchStmt(s)

	case *ast.SelectStmt:
		label := b.takeLabel()
		b.add(s)
		head := b.cur
		after := b.newBlock()
		b.setLabelTargets(label, head, after, nil)
		b.pushScope(loopScope{breakTo: after, label: label})
		any := false
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			any = true
			cb := b.newBlock()
			b.edge(head, cb)
			b.startBlock(cb)
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, after)
		}
		b.popScope()
		if !any {
			// select{} blocks forever: no edge to after, but keep the
			// block so following statements stay representable.
		}
		b.startBlock(after)

	case *ast.LabeledStmt:
		li := &labelInfo{}
		b.labels[s.Label.Name] = li
		// The labeled statement begins in a fresh block so gotos have a
		// stable target.
		target := b.newBlock()
		b.edge(b.cur, target)
		b.startBlock(target)
		li.block = target
		// Only the construct the label is directly attached to may
		// consume it for break/continue targets; a loop nested deeper
		// must not steal it.
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = s.Label.Name
			b.stmt(s.Stmt)
			b.pendingLabel = ""
		default:
			b.stmt(s.Stmt)
		}

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if t := b.branchTarget(s, true); t != nil {
				b.edge(b.cur, t)
			}
		case token.CONTINUE:
			if t := b.branchTarget(s, false); t != nil {
				b.edge(b.cur, t)
			}
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
		case token.FALLTHROUGH:
			// Handled structurally in switchStmt; nothing to do here.
		}
		if s.Tok != token.FALLTHROUGH {
			// Control does not continue past break/continue/goto.
			b.startBlock(b.newBlock())
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.startBlock(b.newBlock())

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.g.Exit)
			b.startBlock(b.newBlock())
		}

	default:
		// Decl, assign, send, inc/dec, defer, go, empty: straight-line.
		b.add(s)
	}
}

// switchStmt lowers expression and type switches: the guard evaluates
// in the current block, each case clause gets its own block, and
// fallthrough chains a case's end into the next clause's block.
func (b *builder) switchStmt(s ast.Stmt) {
	label := b.takeLabel()
	b.add(s)
	head := b.cur
	after := b.newBlock()
	b.setLabelTargets(label, head, after, nil)

	var clauses []*ast.CaseClause
	var bodyList []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		bodyList = s.Body.List
	case *ast.TypeSwitchStmt:
		bodyList = s.Body.List
	}
	for _, c := range bodyList {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.pushScope(loopScope{breakTo: after, label: label})
	for i, cc := range clauses {
		b.startBlock(blocks[i])
		b.stmtList(cc.Body)
		if fallsThrough(cc.Body) && i+1 < len(clauses) {
			b.edge(b.cur, blocks[i+1])
		} else {
			b.edge(b.cur, after)
		}
	}
	b.popScope()
	b.startBlock(after)
}

// fallsThrough reports whether a case body ends in a fallthrough
// statement.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) pushScope(s loopScope) { b.scopes = append(b.scopes, s) }
func (b *builder) popScope()             { b.scopes = b.scopes[:len(b.scopes)-1] }

// takeLabel consumes the label pending from an enclosing LabeledStmt.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) setLabelTargets(label string, head, breakTo, continueTo *Block) {
	if label == "" {
		return
	}
	if li, ok := b.labels[label]; ok {
		li.breakTo = breakTo
		li.continueTo = continueTo
		if li.block == nil {
			li.block = head
		}
	}
}

// branchTarget resolves break (isBreak) or continue to its target
// block, or nil if the statement is semantically dangling.
func (b *builder) branchTarget(s *ast.BranchStmt, isBreak bool) *Block {
	if s.Label != nil {
		li, ok := b.labels[s.Label.Name]
		if !ok {
			return nil
		}
		if isBreak {
			return li.breakTo
		}
		return li.continueTo
	}
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := b.scopes[i]
		if isBreak {
			return sc.breakTo
		}
		if sc.continueTo != nil {
			return sc.continueTo
		}
	}
	return nil
}

func (b *builder) resolveGotos() {
	for _, g := range b.gotos {
		if li, ok := b.labels[g.label]; ok && li.block != nil {
			b.edge(g.from, li.block)
		}
	}
}

// isPanicCall reports whether e is a direct call of the predeclared
// panic identifier. This is a syntactic check (a local function named
// panic would also match); the CFG only uses it to add an extra edge to
// the exit block, which is conservative either way.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// BlockNodes returns the AST nodes that actually execute within the
// block holding s: the whole statement for straight-line statements,
// but only the guard parts (init, condition, tag, range operand) for
// compound statements whose bodies live in successor blocks. Dataflow
// transfer functions iterate these instead of ast.Inspect-ing the raw
// statement, which would leak body effects into the guard's block.
func BlockNodes(s ast.Stmt) []ast.Node {
	var out []ast.Node
	add := func(n ast.Node) {
		if n != nil && !isNilNode(n) {
			out = append(out, n)
		}
	}
	switch s := s.(type) {
	case *ast.IfStmt:
		add(s.Init)
		add(s.Cond)
	case *ast.ForStmt:
		add(s.Init)
		add(s.Cond)
	case *ast.RangeStmt:
		add(s.Key)
		add(s.Value)
		add(s.X)
	case *ast.SwitchStmt:
		add(s.Init)
		add(s.Tag)
	case *ast.TypeSwitchStmt:
		add(s.Init)
		add(s.Assign)
	case *ast.SelectStmt:
		// Comm statements execute in their clause blocks.
	default:
		add(s)
	}
	return out
}

// isNilNode guards against typed-nil ast.Node interface values
// (e.g. a nil *ast.Stmt field passed through add).
func isNilNode(n ast.Node) bool {
	switch v := n.(type) {
	case ast.Stmt:
		return v == nil
	case ast.Expr:
		return v == nil
	}
	return n == nil
}

// Reachable returns the set of blocks reachable from the entry block.
func (g *Graph) Reachable() map[*Block]bool {
	seen := make(map[*Block]bool)
	var stack []*Block
	stack = append(stack, g.Entry)
	seen[g.Entry] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// InCycle returns the set of blocks that lie on some cycle of the
// graph: a block is cyclic iff it can reach itself through one or more
// edges. Analyzers use this as the semantic notion of "inside a loop"
// (it also covers loops spelled with goto).
func (g *Graph) InCycle() map[*Block]bool {
	cyclic := make(map[*Block]bool)
	for _, b := range g.Blocks {
		// DFS from b's successors looking for b itself.
		seen := make(map[*Block]bool)
		stack := append([]*Block(nil), b.Succs...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == b {
				cyclic[b] = true
				break
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, n.Succs...)
		}
	}
	return cyclic
}
