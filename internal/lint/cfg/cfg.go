// Package cfg builds per-function control-flow graphs over go/ast for the
// medalint dataflow analyzers. A CFG decomposes one function body into
// basic blocks of "simple" nodes — expressions and uncomposed statements —
// connected by the edges the composite statements induce: if/else, for and
// range loops, switch and select dispatch, break/continue/goto/fallthrough,
// and return. Function literals are opaque: a closure's body never joins
// the enclosing function's graph (it runs at call time, on whatever
// goroutine calls it), so analyzers schedule each literal as its own CFG.
//
// The graph is deliberately simpler than golang.org/x/tools/go/cfg where
// the medalint analyzers don't need the precision: runtime aborts are not
// modeled, and unreachable code after a terminal statement is kept in
// blocks with no predecessors so analyzers still visit it. Calls that never
// return (panic, os.Exit, log.Fatal) end their path only when the caller
// says which they are: cfg sees syntax, so it takes a predicate over call
// expressions from an analyzer that has resolved their callees.
//
// Two marker node types appear in blocks alongside standard ast nodes.
// *Select stands for the decision point of a select statement (its clause
// bodies get their own blocks), carrying whether the select can block; and
// *Comm wraps a clause's communication statement, whose channel operation
// is resolved by the select itself rather than blocking where it appears.
// Analyzers walk block nodes through Visit, which unwraps both.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every block in creation order; Blocks[0] is the entry.
	Blocks []*Block
	// Entry is the block control enters at the top of the body.
	Entry *Block
	// Exit is a synthetic empty block: every return statement and the
	// fall-off-the-end path lead here, giving backward analyses a single
	// boundary block.
	Exit *Block
}

// Block is one basic block: nodes that execute sequentially, with control
// transferring to one of Succs afterwards.
type Block struct {
	Index int
	// Nodes are the block's statements and expressions in execution order.
	// Entries are standard go/ast nodes except for the *Select and *Comm
	// markers; walk them with Visit.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Cond, when non-nil, is the branch condition evaluated at the end of
	// the block: Succs[0] is the true edge and Succs[1] the false edge.
	// Cond also appears as the last entry of Nodes, so transfer functions
	// see its reads; edge-sensitive analyses refine on it per successor.
	Cond ast.Expr
}

// Select marks the decision point of a select statement. The clause bodies
// (and their communication statements) live in successor blocks; the marker
// records whether the statement can block the goroutine (no default
// clause).
type Select struct {
	Stmt *ast.SelectStmt
	// Blocking is true when the select has no default clause.
	Blocking bool
}

// Pos implements ast.Node.
func (s *Select) Pos() token.Pos { return s.Stmt.Pos() }

// End implements ast.Node.
func (s *Select) End() token.Pos { return s.Stmt.End() }

// Comm wraps the communication statement of a select clause (the send,
// receive, or receive-assignment in the case header). It executes only
// after the select chose its clause, so its channel operation does not
// itself block.
type Comm struct {
	Stmt ast.Stmt
}

// Pos implements ast.Node.
func (c *Comm) Pos() token.Pos { return c.Stmt.Pos() }

// End implements ast.Node.
func (c *Comm) End() token.Pos { return c.Stmt.End() }

// Visit walks the standard go/ast content of one block node in depth-first
// order, unwrapping the cfg marker nodes (a *Select has no standard
// content; a *Comm yields its statement). f follows the ast.Inspect
// contract: returning false prunes the subtree.
func Visit(n ast.Node, f func(ast.Node) bool) {
	switch n := n.(type) {
	case *Select:
		// Clause bodies live in their own blocks.
	case *Comm:
		ast.Inspect(n.Stmt, f)
	default:
		ast.Inspect(n, f)
	}
}

// New builds the CFG of one function body. noReturn, when non-nil,
// reports calls that never return: a statement that is such a call ends
// its block with no successor, so the rest of the function is not reached
// along that path (nor is Exit).
func New(body *ast.BlockStmt, noReturn func(*ast.CallExpr) bool) *CFG {
	g := &CFG{}
	b := &builder{g: g, labels: make(map[string]*labelInfo), noReturn: noReturn}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmt(body)
	b.jump(b.cur, g.Exit)
	return g
}

// ReversePostorder returns the blocks reachable from the entry in reverse
// postorder (every block before its successors, loops aside), followed by
// any unreachable blocks in index order so analyzers still visit dead code.
func (g *CFG) ReversePostorder() []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	order := make([]*Block, 0, len(g.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		order = append(order, post[i])
	}
	for _, b := range g.Blocks {
		if !seen[b.Index] {
			order = append(order, b)
		}
	}
	return order
}

// String renders the graph structure for tests and debugging: one line per
// block with its node count and successor indices.
func (g *CFG) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d[%d]", b.Index, len(b.Nodes))
		if len(b.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// labelInfo tracks one label: the block a goto jumps to, plus the targets
// labeled break/continue resolve to while the labeled statement builds.
type labelInfo struct {
	block      *Block
	breakTo    *Block
	continueTo *Block
}

// frame is one enclosing breakable construct (loop, switch, select).
type frame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

type builder struct {
	g      *CFG
	cur    *Block
	frames []frame
	labels map[string]*labelInfo
	// curLabel is the pending label of the statement being built, consumed
	// by the next loop/switch/select so labeled break/continue resolve.
	curLabel string
	// fallTo is the next case block during switch clause construction,
	// targeted by fallthrough statements.
	fallTo *Block
	// noReturn is New's predicate over calls that never return; nil when
	// none are known.
	noReturn func(*ast.CallExpr) bool
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) jump(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// terminate ends the current block with no fallthrough successor; nodes
// after a return/break/continue/goto land in a fresh block with no preds.
func (b *builder) terminate() {
	b.cur = b.newBlock()
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// takeLabel consumes the pending statement label.
func (b *builder) takeLabel() string {
	l := b.curLabel
	b.curLabel = ""
	return l
}

// findBreak returns the break target for an optional label.
func (b *builder) findBreak(label string) *Block {
	if label != "" {
		if li := b.labels[label]; li != nil && li.breakTo != nil {
			return li.breakTo
		}
		return nil
	}
	for i := len(b.frames) - 1; i >= 0; i-- {
		return b.frames[i].breakTo
	}
	return nil
}

// findContinue returns the continue target for an optional label.
func (b *builder) findContinue(label string) *Block {
	if label != "" {
		if li := b.labels[label]; li != nil {
			return li.continueTo
		}
		return nil
	}
	for i := len(b.frames) - 1; i >= 0; i-- {
		if b.frames[i].continueTo != nil {
			return b.frames[i].continueTo
		}
	}
	return nil
}

// labelFor returns (creating on first use) the info for a label, so both
// forward and backward gotos resolve to the same block.
func (b *builder) labelFor(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{block: b.newBlock()}
		b.labels[name] = li
	}
	return li
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.LabeledStmt:
		li := b.labelFor(s.Label.Name)
		b.jump(b.cur, li.block)
		b.cur = li.block
		b.curLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.curLabel = ""
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, b.takeLabel())
	case *ast.RangeStmt:
		b.rangeStmt(s, b.takeLabel())
	case *ast.SwitchStmt:
		b.add(s.Init)
		b.add(s.Tag)
		b.switchStmt(caseClauses(s.Body), b.takeLabel())
	case *ast.TypeSwitchStmt:
		b.add(s.Init)
		b.add(s.Assign)
		b.switchStmt(caseClauses(s.Body), b.takeLabel())
	case *ast.SelectStmt:
		b.selectStmt(s, b.takeLabel())
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cur, b.g.Exit)
		b.terminate()
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.noReturn != nil && b.noReturn(call) {
			b.terminate()
		}
	default:
		// Simple statements: declarations, assignments, expression and
		// send statements, defer/go, increments, empties.
		b.add(s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	b.add(s.Init)
	b.add(s.Cond)
	cond := b.cur
	cond.Cond = s.Cond
	then := b.newBlock()
	b.jump(cond, then) // Succs[0]: true edge
	b.cur = then
	b.stmt(s.Body)
	thenEnd := b.cur
	if s.Else != nil {
		elseB := b.newBlock()
		b.jump(cond, elseB) // Succs[1]: false edge
		b.cur = elseB
		b.stmt(s.Else)
		elseEnd := b.cur
		join := b.newBlock()
		b.jump(thenEnd, join)
		b.jump(elseEnd, join)
		b.cur = join
		return
	}
	join := b.newBlock()
	b.jump(cond, join) // Succs[1]: false edge
	b.jump(thenEnd, join)
	b.cur = join
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	b.add(s.Init)
	header := b.newBlock()
	b.jump(b.cur, header)
	join := b.newBlock()
	continueTo := header
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		post.Nodes = append(post.Nodes, s.Post)
		b.jump(post, header)
		continueTo = post
	}
	body := b.newBlock()
	if s.Cond != nil {
		header.Nodes = append(header.Nodes, s.Cond)
		header.Cond = s.Cond
		b.jump(header, body) // true edge
		b.jump(header, join) // false edge
	} else {
		b.jump(header, body)
	}
	if label != "" {
		li := b.labelFor(label)
		li.breakTo, li.continueTo = join, continueTo
	}
	b.frames = append(b.frames, frame{label: label, breakTo: join, continueTo: continueTo})
	b.cur = body
	b.stmt(s.Body)
	b.jump(b.cur, continueTo)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	b.add(s.X)
	header := b.newBlock()
	b.jump(b.cur, header)
	// Model the per-iteration key/value binding as an assignment from the
	// ranged expression so dataflow analyses see the definitions. The
	// synthetic node reuses the original sub-expressions, so type
	// information stays resolvable.
	if s.Key != nil && (s.Tok == token.DEFINE || s.Tok == token.ASSIGN) {
		lhs := []ast.Expr{s.Key}
		if s.Value != nil {
			lhs = append(lhs, s.Value)
		}
		header.Nodes = append(header.Nodes, &ast.AssignStmt{
			Lhs: lhs, TokPos: s.TokPos, Tok: s.Tok, Rhs: []ast.Expr{s.X},
		})
	}
	body := b.newBlock()
	join := b.newBlock()
	b.jump(header, body)
	b.jump(header, join)
	if label != "" {
		li := b.labelFor(label)
		li.breakTo, li.continueTo = join, header
	}
	b.frames = append(b.frames, frame{label: label, breakTo: join, continueTo: header})
	b.cur = body
	b.stmt(s.Body)
	b.jump(b.cur, header)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

// caseClauses extracts the clauses of a switch body (both expression and
// type switches use *ast.CaseClause).
func caseClauses(body *ast.BlockStmt) []*ast.CaseClause {
	cs := make([]*ast.CaseClause, 0, len(body.List))
	for _, st := range body.List {
		if c, ok := st.(*ast.CaseClause); ok {
			cs = append(cs, c)
		}
	}
	return cs
}

func (b *builder) switchStmt(clauses []*ast.CaseClause, label string) {
	sw := b.cur
	join := b.newBlock()
	if label != "" {
		li := b.labelFor(label)
		li.breakTo = join
	}
	b.frames = append(b.frames, frame{label: label, breakTo: join})
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		b.jump(sw, blocks[i])
		if c.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.jump(sw, join)
	}
	for i, c := range clauses {
		b.cur = blocks[i]
		for _, e := range c.List {
			b.add(e)
		}
		b.fallTo = nil
		if i+1 < len(blocks) {
			b.fallTo = blocks[i+1]
		}
		for _, st := range c.Body {
			b.stmt(st)
		}
		b.fallTo = nil
		b.jump(b.cur, join)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = join
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	blocking := true
	for _, st := range s.Body.List {
		if c, ok := st.(*ast.CommClause); ok && c.Comm == nil {
			blocking = false
		}
	}
	b.add(&Select{Stmt: s, Blocking: blocking})
	sw := b.cur
	join := b.newBlock()
	if label != "" {
		li := b.labelFor(label)
		li.breakTo = join
	}
	b.frames = append(b.frames, frame{label: label, breakTo: join})
	n := 0
	for _, st := range s.Body.List {
		c, ok := st.(*ast.CommClause)
		if !ok {
			continue
		}
		n++
		caseB := b.newBlock()
		b.jump(sw, caseB)
		b.cur = caseB
		if c.Comm != nil {
			b.add(&Comm{Stmt: c.Comm})
		}
		for _, st := range c.Body {
			b.stmt(st)
		}
		b.jump(b.cur, join)
	}
	b.frames = b.frames[:len(b.frames)-1]
	if n == 0 {
		// select{} blocks forever; join is unreachable.
		b.terminate()
		return
	}
	b.cur = join
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	var target *Block
	switch s.Tok {
	case token.BREAK:
		target = b.findBreak(label)
	case token.CONTINUE:
		target = b.findContinue(label)
	case token.GOTO:
		if s.Label != nil {
			target = b.labelFor(s.Label.Name).block
		}
	case token.FALLTHROUGH:
		target = b.fallTo
	}
	b.add(s)
	if target != nil {
		b.jump(b.cur, target)
	}
	b.terminate()
}
