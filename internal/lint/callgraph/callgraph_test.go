package callgraph_test

import (
	"go/types"
	"path/filepath"
	"testing"

	"meda/internal/lint/analysis"
	"meda/internal/lint/callgraph"
)

func load(t *testing.T) (*analysis.Package, *callgraph.Graph) {
	t.Helper()
	dir := filepath.Join("testdata", "graph")
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, callgraph.Build(pkg.Types, pkg.Info, pkg.Files)
}

func fnByName(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Fn.Name() == name {
			return n
		}
	}
	t.Fatalf("no node named %s", name)
	return nil
}

func TestStaticCalls(t *testing.T) {
	_, g := load(t)
	caller := fnByName(t, g, "Caller")
	if len(caller.Calls) != 2 {
		t.Fatalf("Caller has %d calls, want 2", len(caller.Calls))
	}
	for _, c := range caller.Calls {
		if c.Kind != callgraph.Static {
			t.Errorf("Caller call kind = %v, want static", c.Kind)
		}
		if len(c.Targets) != 1 || c.Targets[0].Name() != "Leaf" {
			t.Errorf("Caller call targets = %v, want [Leaf]", c.Targets)
		}
	}
	if leaf := fnByName(t, g, "Leaf"); len(leaf.Calls) != 0 {
		t.Errorf("Leaf has %d calls, want 0", len(leaf.Calls))
	}
}

func TestInterfaceDispatchCHA(t *testing.T) {
	_, g := load(t)
	measure := fnByName(t, g, "Measure")
	if len(measure.Calls) != 1 {
		t.Fatalf("Measure has %d calls, want 1", len(measure.Calls))
	}
	c := measure.Calls[0]
	if c.Kind != callgraph.Interface {
		t.Fatalf("Measure call kind = %v, want interface", c.Kind)
	}
	got := map[string]bool{}
	for _, tgt := range c.Targets {
		sig := tgt.Type().(*types.Signature)
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		got[recv.(*types.Named).Obj().Name()] = true
	}
	if !got["Square"] || !got["Circle"] {
		t.Errorf("CHA targets miss a receiver: got %v, want Square and Circle", got)
	}
}

func TestDynamicCall(t *testing.T) {
	_, g := load(t)
	dyn := fnByName(t, g, "Dynamic")
	if len(dyn.Calls) != 1 {
		t.Fatalf("Dynamic has %d calls, want 1", len(dyn.Calls))
	}
	if c := dyn.Calls[0]; c.Kind != callgraph.Dynamic || len(c.Targets) != 0 {
		t.Errorf("Dynamic call = kind %v targets %v, want dynamic with no targets", c.Kind, c.Targets)
	}
}

func TestCallContexts(t *testing.T) {
	_, g := load(t)
	ctx := fnByName(t, g, "Contexts")
	// Calls in body order: Leaf(), defer Leaf(), go Leaf(), func(){Leaf()},
	// f(). The literal's inner call and the go call are async; the deferred
	// call is deferred; the dynamic f() is neither.
	var plain, deferred, async int
	for _, c := range ctx.Calls {
		switch {
		case c.Deferred:
			deferred++
		case c.Async:
			async++
		default:
			plain++
		}
	}
	if plain != 2 || deferred != 1 || async != 2 {
		t.Errorf("Contexts calls: plain=%d deferred=%d async=%d, want 2/1/2", plain, deferred, async)
	}
}

func TestExternalCallHasTargetWithoutNode(t *testing.T) {
	_, g := load(t)
	ext := fnByName(t, g, "External")
	if len(ext.Calls) != 1 {
		t.Fatalf("External has %d calls, want 1", len(ext.Calls))
	}
	c := ext.Calls[0]
	if c.Kind != callgraph.Static || len(c.Targets) != 1 {
		t.Fatalf("External call = kind %v targets %v, want one static target", c.Kind, c.Targets)
	}
	for _, n := range g.Nodes {
		if n.Fn == c.Targets[0] {
			t.Errorf("io.WriteString has a node in the package graph; external callees must not")
		}
	}
}

// TestSCCsBottomUp: direct recursion and mutual recursion each condense to
// one component, and every component appears after the components it calls.
func TestSCCsBottomUp(t *testing.T) {
	_, g := load(t)
	sccs := g.SCCs()
	compOf := make(map[string]int)
	for i, comp := range sccs {
		for _, n := range comp {
			compOf[n.Fn.Name()] = i
		}
	}
	if compOf["Even"] != compOf["Odd"] {
		t.Errorf("Even (comp %d) and Odd (comp %d) should share an SCC", compOf["Even"], compOf["Odd"])
	}
	for i, comp := range sccs {
		for _, n := range comp {
			if n.Fn.Name() == "SelfRec" && len(comp) != 1 {
				t.Errorf("SelfRec SCC has %d members, want 1 (self-loop)", len(comp))
			}
			_ = i
		}
	}
	// Bottom-up: callees come first.
	if !(compOf["Leaf"] < compOf["Caller"] && compOf["Caller"] < compOf["Chain"]) {
		t.Errorf("SCC order not bottom-up: Leaf=%d Caller=%d Chain=%d",
			compOf["Leaf"], compOf["Caller"], compOf["Chain"])
	}
	if compOf["Square"] >= compOf["Measure"] || compOf["Circle"] >= compOf["Measure"] {
		t.Errorf("interface targets should precede Measure: Square=%d Circle=%d Measure=%d",
			compOf["Square"], compOf["Circle"], compOf["Measure"])
	}
}
