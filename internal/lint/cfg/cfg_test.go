package cfg_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"meda/internal/lint/cfg"
)

// build parses src as the body of a function and returns its CFG.
func build(t *testing.T, body string) *cfg.CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	return cfg.New(fd.Body, nil)
}

func TestStraightLine(t *testing.T) {
	g := build(t, "x := 1\ny := x + 1\n_ = y")
	if len(g.Entry.Nodes) != 3 {
		t.Errorf("entry has %d nodes, want 3", len(g.Entry.Nodes))
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Errorf("entry should fall through to exit: %s", g)
	}
}

func TestIfElseJoin(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\nx = 2\n} else {\nx = 3\n}\n_ = x")
	e := g.Entry
	if e.Cond == nil {
		t.Fatalf("entry should end in a branch: %s", g)
	}
	if len(e.Succs) != 2 {
		t.Fatalf("branch block has %d succs, want 2: %s", len(e.Succs), g)
	}
	then, els := e.Succs[0], e.Succs[1]
	if len(then.Succs) != 1 || len(els.Succs) != 1 || then.Succs[0] != els.Succs[0] {
		t.Errorf("then/else should rejoin at one block: %s", g)
	}
	join := then.Succs[0]
	if len(join.Succs) != 1 || join.Succs[0] != g.Exit {
		t.Errorf("join should reach exit: %s", g)
	}
}

func TestIfWithoutElse(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\nx = 2\n}\n_ = x")
	e := g.Entry
	if len(e.Succs) != 2 {
		t.Fatalf("branch block has %d succs, want 2: %s", len(e.Succs), g)
	}
	then, join := e.Succs[0], e.Succs[1]
	if len(then.Succs) != 1 || then.Succs[0] != join {
		t.Errorf("then branch should fall into the false-edge block: %s", g)
	}
}

func TestForLoop(t *testing.T) {
	g := build(t, "s := 0\nfor i := 0; i < 10; i++ {\ns += i\n}\n_ = s")
	// entry(init) -> header(cond) -> {body, join}; body -> post -> header.
	header := g.Entry.Succs[0]
	if header.Cond == nil || len(header.Succs) != 2 {
		t.Fatalf("loop header malformed: %s", g)
	}
	body, join := header.Succs[0], header.Succs[1]
	if len(body.Succs) != 1 {
		t.Fatalf("body should continue to post: %s", g)
	}
	post := body.Succs[0]
	if len(post.Succs) != 1 || post.Succs[0] != header {
		t.Errorf("post should loop back to header: %s", g)
	}
	if len(join.Succs) != 1 || join.Succs[0] != g.Exit {
		t.Errorf("loop exit should reach function exit: %s", g)
	}
}

func TestInfiniteLoopWithBreak(t *testing.T) {
	g := build(t, "for {\nbreak\n}\n_ = 1")
	header := g.Entry.Succs[0]
	if len(header.Succs) != 1 {
		t.Fatalf("condition-less header should only enter the body: %s", g)
	}
	// The break must reach a block that leads to exit.
	body := header.Succs[0]
	if len(body.Succs) != 1 {
		t.Fatalf("break should leave the loop: %s", g)
	}
	reached := reachable(body.Succs[0])
	if !reached[g.Exit] {
		t.Errorf("break target cannot reach exit: %s", g)
	}
}

func TestRangeLoop(t *testing.T) {
	g := build(t, "xs := []int{1}\nt := 0\nfor _, x := range xs {\nt += x\n}\n_ = t")
	header := g.Entry.Succs[0]
	if len(header.Succs) != 2 {
		t.Fatalf("range header should branch body/join: %s", g)
	}
	// The header carries a synthetic assignment binding the iteration vars.
	found := false
	for _, n := range header.Nodes {
		if _, ok := n.(*ast.AssignStmt); ok {
			found = true
		}
	}
	if !found {
		t.Errorf("range header should hold the key/value binding: %s", g)
	}
	body := header.Succs[0]
	if len(body.Succs) != 1 || body.Succs[0] != header {
		t.Errorf("range body should loop back to header: %s", g)
	}
}

func TestReturnEdges(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\nreturn\n}\n_ = x")
	then := g.Entry.Succs[0]
	if len(then.Succs) != 1 || then.Succs[0] != g.Exit {
		t.Errorf("return should edge straight to exit: %s", g)
	}
	if len(g.Exit.Preds) != 2 {
		t.Errorf("exit should have return + fall-off preds, got %d: %s", len(g.Exit.Preds), g)
	}
}

func TestSwitchClauses(t *testing.T) {
	g := build(t, "x := 1\nswitch x {\ncase 1:\nx = 2\ncase 2:\nx = 3\ndefault:\nx = 4\n}\n_ = x")
	sw := g.Entry
	if len(sw.Succs) != 3 {
		t.Fatalf("switch with default should have one succ per clause, got %d: %s", len(sw.Succs), g)
	}
	join := sw.Succs[0].Succs[0]
	for i, c := range sw.Succs {
		if len(c.Succs) != 1 || c.Succs[0] != join {
			t.Errorf("clause %d should flow to the common join: %s", i, g)
		}
	}
}

func TestSwitchWithoutDefaultFallsThrough(t *testing.T) {
	g := build(t, "x := 1\nswitch x {\ncase 1:\nx = 2\n}\n_ = x")
	sw := g.Entry
	if len(sw.Succs) != 2 {
		t.Fatalf("switch without default should also edge to join, got %d succs: %s", len(sw.Succs), g)
	}
}

func TestFallthrough(t *testing.T) {
	g := build(t, "x := 1\nswitch x {\ncase 1:\nfallthrough\ncase 2:\nx = 3\n}\n_ = x")
	sw := g.Entry
	c1 := sw.Succs[0]
	c2 := sw.Succs[1]
	ok := false
	for _, s := range c1.Succs {
		if s == c2 {
			ok = true
		}
	}
	if !ok {
		t.Errorf("fallthrough should edge from case 1 to case 2: %s", g)
	}
}

func TestSelectMarkers(t *testing.T) {
	g := build(t, "ch := make(chan int)\nselect {\ncase v := <-ch:\n_ = v\ndefault:\n}\n_ = ch")
	var sel *cfg.Select
	var comm *cfg.Comm
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			switch n := n.(type) {
			case *cfg.Select:
				sel = n
			case *cfg.Comm:
				comm = n
			}
		}
	}
	if sel == nil || comm == nil {
		t.Fatalf("select should leave Select and Comm markers: %s", g)
	}
	if sel.Blocking {
		t.Errorf("select with default should be non-blocking")
	}
	if sel.Pos() == token.NoPos || comm.Pos() == token.NoPos {
		t.Errorf("markers should carry positions")
	}

	g2 := build(t, "ch := make(chan int)\nselect {\ncase <-ch:\n}")
	blocking := false
	for _, b := range g2.Blocks {
		for _, n := range b.Nodes {
			if s, ok := n.(*cfg.Select); ok && s.Blocking {
				blocking = true
			}
		}
	}
	if !blocking {
		t.Errorf("select without default should be blocking: %s", g2)
	}
}

func TestGotoAndLabels(t *testing.T) {
	g := build(t, "x := 0\nloop:\nx++\nif x < 3 {\ngoto loop\n}\n_ = x")
	// The goto must create a cycle back to the labeled block.
	if !hasCycle(g) {
		t.Errorf("goto loop should create a cycle: %s", g)
	}
}

func TestLabeledBreakContinue(t *testing.T) {
	g := build(t, "outer:\nfor i := 0; i < 3; i++ {\nfor {\nif i == 1 {\ncontinue outer\n}\nbreak outer\n}\n}")
	if !hasCycle(g) {
		t.Fatalf("labeled loop should cycle: %s", g)
	}
	// Everything reachable must still reach exit through labeled break.
	if !reachable(g.Entry)[g.Exit] {
		t.Errorf("labeled break should reach exit: %s", g)
	}
}

func TestReversePostorder(t *testing.T) {
	g := build(t, "x := 1\nif x > 0 {\nx = 2\n} else {\nx = 3\n}\nfor x < 10 {\nx++\n}\n_ = x")
	order := g.ReversePostorder()
	if len(order) != len(g.Blocks) {
		t.Fatalf("RPO returned %d blocks, CFG has %d", len(order), len(g.Blocks))
	}
	pos := make(map[*cfg.Block]int, len(order))
	for i, b := range order {
		if _, dup := pos[b]; dup {
			t.Fatalf("block b%d repeated in RPO", b.Index)
		}
		pos[b] = i
	}
	if pos[g.Entry] != 0 {
		t.Errorf("entry should come first in RPO")
	}
	// Except for back edges, successors come after their predecessors.
	forward := 0
	for _, b := range order {
		for _, s := range b.Succs {
			if pos[s] > pos[b] {
				forward++
			}
		}
	}
	if forward == 0 {
		t.Errorf("RPO should order most edges forward: %s", g)
	}
}

func TestUnreachableAfterReturn(t *testing.T) {
	g := build(t, "return\n_ = 1")
	order := g.ReversePostorder()
	if len(order) != len(g.Blocks) {
		t.Fatalf("unreachable blocks must still be visited")
	}
	dead := 0
	for _, b := range g.Blocks {
		if len(b.Preds) == 0 && b != g.Entry && len(b.Nodes) > 0 {
			dead++
		}
	}
	if dead != 1 {
		t.Errorf("want exactly one dead block holding the unreachable statement, got %d: %s", dead, g)
	}
}

func TestDeferAndGoStayInBlock(t *testing.T) {
	g := build(t, "defer func() {}()\ngo func() {}()\n_ = 1")
	if len(g.Entry.Nodes) != 3 {
		t.Errorf("defer/go are simple nodes, entry has %d nodes: %s", len(g.Entry.Nodes), g)
	}
}

func TestVisitUnwrapsMarkers(t *testing.T) {
	g := build(t, "ch := make(chan int)\nselect {\ncase v := <-ch:\n_ = v\n}")
	idents := 0
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			cfg.Visit(n, func(m ast.Node) bool {
				if _, ok := m.(*ast.Ident); ok {
					idents++
				}
				return true
			})
		}
	}
	if idents == 0 {
		t.Errorf("Visit should surface idents inside Comm markers")
	}
}

func TestString(t *testing.T) {
	g := build(t, "x := 1\n_ = x")
	s := g.String()
	if !strings.Contains(s, "b0[2]") {
		t.Errorf("String() = %q, want b0[2] entry", s)
	}
}

func reachable(from *cfg.Block) map[*cfg.Block]bool {
	seen := map[*cfg.Block]bool{}
	var dfs func(*cfg.Block)
	dfs = func(b *cfg.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			dfs(s)
		}
	}
	dfs(from)
	return seen
}

func hasCycle(g *cfg.CFG) bool {
	state := make([]int, len(g.Blocks)) // 0 unvisited, 1 in progress, 2 done
	var dfs func(*cfg.Block) bool
	dfs = func(b *cfg.Block) bool {
		state[b.Index] = 1
		for _, s := range b.Succs {
			if state[s.Index] == 1 {
				return true
			}
			if state[s.Index] == 0 && dfs(s) {
				return true
			}
		}
		state[b.Index] = 2
		return false
	}
	return dfs(g.Entry)
}

// A statement calling a function the predicate names ends its path; the
// same call deferred, started as a goroutine or nested in an expression
// does not, and without a predicate nothing does.
func TestNoReturnCallEndsPath(t *testing.T) {
	src := "package p\nfunc f(x int) {\nif x > 0 {\nfatal()\n}\nif x > 1 {\ndefer fatal()\ngo fatal()\n_ = g(fatal())\n}\n_ = x\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	body := f.Decls[0].(*ast.FuncDecl).Body
	fatal := func(call *ast.CallExpr) bool {
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "fatal"
	}
	g := cfg.New(body, fatal)
	then := g.Entry.Succs[0]
	if len(then.Nodes) != 1 || len(then.Succs) != 0 {
		t.Errorf("the block calling fatal should end with no successor: %s", g)
	}
	second := g.Entry.Succs[1] // the join of the first if, holding the second
	if len(second.Succs) != 2 || len(second.Succs[0].Succs) != 1 {
		t.Errorf("defer, go and a nested call should fall through: %s", g)
	}
	if plain := cfg.New(body, nil); len(plain.Entry.Succs[0].Succs) != 1 {
		t.Errorf("without a predicate the call should fall through: %s", plain)
	}
}
