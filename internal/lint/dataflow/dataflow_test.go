package dataflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"meda/internal/lint/cfg"
	"meda/internal/lint/dataflow"
)

func build(t *testing.T, body string) *cfg.CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return cfg.New(f.Decls[0].(*ast.FuncDecl).Body, nil)
}

type set = dataflow.VarSet[string, int]
type lattice = dataflow.VarSetLattice[string, int]

// defsIn collects the names defined (:=) by a block's nodes.
func defs(b *cfg.Block) []string {
	var out []string
	for _, n := range b.Nodes {
		cfg.Visit(n, func(m ast.Node) bool {
			if as, ok := m.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
				for _, l := range as.Lhs {
					if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
						out = append(out, id.Name)
					}
				}
			}
			return true
		})
	}
	return out
}

// TestForwardReachingDefs: "may reach" union join across an if/else.
func TestForwardReachingDefs(t *testing.T) {
	g := build(t, "a := 1\nif a > 0 {\nb := 2\n_ = b\n} else {\nc := 3\n_ = c\n}\n_ = a")
	transfer := func(b *cfg.Block, in set) set {
		out := in
		for _, name := range defs(b) {
			out = out.With(name, b.Index)
		}
		return out
	}
	res := dataflow.Forward[set](g, lattice{}, nil, transfer, nil)
	exit := res.In[g.Exit]
	for _, want := range []string{"a", "b", "c"} {
		if _, ok := exit[want]; !ok {
			t.Errorf("def %q should reach exit, got %v", want, exit)
		}
	}
	// Inside the then branch, c is not yet defined.
	then := g.Entry.Succs[0]
	if _, ok := res.In[then]["c"]; ok {
		t.Errorf("c defined on else branch must not reach then entry")
	}
}

// TestForwardLoopFixpoint: defs inside a loop body reach the loop header
// through the back edge.
func TestForwardLoopFixpoint(t *testing.T) {
	g := build(t, "x := 0\nfor x < 5 {\ny := x\n_ = y\nx++\n}\n_ = x")
	transfer := func(b *cfg.Block, in set) set {
		out := in
		for _, name := range defs(b) {
			out = out.With(name, b.Index)
		}
		return out
	}
	res := dataflow.Forward[set](g, lattice{}, nil, transfer, nil)
	header := g.Entry.Succs[0]
	if _, ok := res.In[header]["y"]; !ok {
		t.Errorf("loop-body def should flow back to the header: in=%v", res.In[header])
	}
}

// TestForwardEdgeRefinement: an EdgeFunc can drop facts on one edge only.
func TestForwardEdgeRefinement(t *testing.T) {
	g := build(t, "a := 1\nif a > 0 {\n_ = a\n} else {\n_ = a\n}")
	transfer := func(b *cfg.Block, in set) set {
		out := in
		for _, name := range defs(b) {
			out = out.With(name, b.Index)
		}
		return out
	}
	edge := func(b *cfg.Block, succ int, out set) set {
		if b.Cond != nil && succ == 1 { // kill everything on false edges
			return nil
		}
		return out
	}
	res := dataflow.Forward[set](g, lattice{}, nil, transfer, edge)
	then, els := g.Entry.Succs[0], g.Entry.Succs[1]
	if _, ok := res.In[then]["a"]; !ok {
		t.Errorf("true edge should keep the fact")
	}
	if len(res.In[els]) != 0 {
		t.Errorf("false edge should have been refined to empty, got %v", res.In[els])
	}
}

func TestVarSetOps(t *testing.T) {
	var s set
	s2 := s.With("a", 1).With("b", 2)
	if len(s2) != 2 {
		t.Fatalf("With: got %v", s2)
	}
	if s3 := s2.Without("a"); len(s3) != 1 || s3["b"] != 2 {
		t.Errorf("Without: got %v", s3)
	}
	if s4 := s2.Without("zzz"); len(s4) != 2 {
		t.Errorf("Without absent key should be identity, got %v", s4)
	}

	lat := lattice{}
	j := lat.Join(s2, set{"c": 3})
	if len(j) != 3 {
		t.Errorf("Join: got %v", j)
	}
	if !lat.Equal(j, set{"a": 9, "b": 9, "c": 9}) {
		t.Errorf("Equal compares key sets only")
	}
	if lat.Equal(j, s2) {
		t.Errorf("different key sets must not be equal")
	}
	if lat.Join(nil, nil) != nil {
		t.Errorf("Join of bottoms should stay bottom")
	}
	if got := lat.Join(s2, nil); len(got) != 2 {
		t.Errorf("Join with bottom should be identity, got %v", got)
	}
	// Earlier insertion wins on payload conflicts.
	if got := lat.Join(set{"k": 1}, set{"k": 2}); got["k"] != 1 {
		t.Errorf("Join payload: got %v", got)
	}
}

// TestUnreachableBlocksGetBottom: blocks after a return still appear in the
// result maps (with bottom facts) so reporting passes can visit them.
func TestUnreachableBlocksGetBottom(t *testing.T) {
	g := build(t, "return\n_ = 1")
	transfer := func(b *cfg.Block, in set) set { return in }
	res := dataflow.Forward[set](g, lattice{}, set{"seed": 0}, transfer, nil)
	if len(res.In) != len(g.Blocks) {
		t.Fatalf("every block should have an In fact")
	}
	for _, b := range g.Blocks {
		if b != g.Entry && len(b.Preds) == 0 && len(res.In[b]) != 0 {
			t.Errorf("unreachable block b%d should hold bottom, got %v", b.Index, res.In[b])
		}
	}
}
