// Package callgraph builds a per-package call graph for the medalint
// interprocedural analyzers. Nodes are the functions and methods declared
// in the package under analysis; edges are their call sites, resolved three
// ways:
//
//   - Static calls (pkg.F(), recv.M() with a concrete receiver) resolve to
//     exactly one callee.
//   - Interface method calls resolve by class-hierarchy analysis (CHA): the
//     callee set is every method with the right name on a named type — in
//     the package under analysis or any package reachable through its
//     imports (loaded from gc export data by the driver's loader) — whose
//     type implements the interface. CHA over-approximates: it asks "what
//     could this call dispatch to anywhere in the program we can see",
//     never "what does it dispatch to here".
//   - Calls through function values, and calls the type checker cannot
//     resolve, stay in the graph as dynamic edges with no targets.
//
// Call sites carry two context bits the summary lattices depend on: Async
// marks sites inside go statements or function literals (they run off the
// caller's control flow, so they cannot block the caller but still execute
// its effects), and Deferred marks sites in defer statements (they run at
// return).
//
// SCCs condenses the intra-package subgraph with Tarjan's algorithm and
// returns the components bottom-up (callees before callers), the order the
// summary package's fixpoint wants. Recursion — direct or mutual — lands in
// one component and converges by iteration instead of unbounded descent.
package callgraph

import (
	"go/ast"
	"go/types"
)

// Kind classifies how a call site was resolved.
type Kind int

const (
	// Static calls have exactly one statically known callee.
	Static Kind = iota
	// Interface calls dispatch through an interface method; Targets holds
	// the CHA candidate set.
	Interface
	// Dynamic calls go through a function value and have no known targets.
	Dynamic
)

func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "interface"
	default:
		return "dynamic"
	}
}

// Call is one call site inside a node's body.
type Call struct {
	Site *ast.CallExpr
	Kind Kind
	// Targets are the possible callees: one function for Static, the CHA
	// candidate set for Interface, empty for Dynamic. Targets may include
	// functions from other packages; the summary layer resolves those
	// through facts.
	Targets []*types.Func
	// Async marks a site inside a go statement or a function literal: it
	// runs off the caller's own control flow.
	Async bool
	// Deferred marks a site inside a defer statement (at any nesting depth
	// outside function literals): it runs when the caller returns.
	Deferred bool
}

// Node is one function or method declared in the package under analysis.
type Node struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Calls []Call
}

// Graph is the call graph of one package.
type Graph struct {
	// Nodes holds every declared function with a body, in declaration
	// order (deterministic across runs).
	Nodes []*Node
	byFn  map[*types.Func]*Node
}

// Node returns the graph node of fn, or nil when fn is not declared (with a
// body) in the analyzed package.
func (g *Graph) Node(fn *types.Func) *Node { return g.byFn[fn] }

// Build constructs the call graph of one type-checked package. The universe
// for CHA interface resolution is pkg plus every package transitively
// reachable through its imports.
func Build(pkg *types.Package, info *types.Info, files []*ast.File) *Graph {
	g := &Graph{byFn: make(map[*types.Func]*Node)}
	for _, file := range files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Fn: fn, Decl: fd}
			g.Nodes = append(g.Nodes, n)
			g.byFn[fn] = n
		}
	}
	cha := newCHA(pkg)
	for _, n := range g.Nodes {
		n.Calls = collectCalls(info, cha, n.Decl.Body)
	}
	return g
}

// collectCalls walks one body gathering call sites with their async/defer
// context. Function literal bodies are included (their calls run under this
// function's dynamic extent once the literal is invoked) but marked Async.
func collectCalls(info *types.Info, cha *chaIndex, body *ast.BlockStmt) []Call {
	var calls []Call
	var walk func(n ast.Node, async, deferred bool)
	walk = func(n ast.Node, async, deferred bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				walk(m.Body, true, deferred)
				return false
			case *ast.GoStmt:
				walk(m.Call, true, deferred)
				return false
			case *ast.DeferStmt:
				walk(m.Call, async, true)
				return false
			case *ast.CallExpr:
				calls = append(calls, resolveCall(info, cha, m, async, deferred))
			}
			return true
		})
	}
	walk(body, false, false)
	return calls
}

// resolveCall classifies one call site and resolves its targets.
func resolveCall(info *types.Info, cha *chaIndex, call *ast.CallExpr, async, deferred bool) Call {
	c := Call{Site: call, Async: async, Deferred: deferred}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			c.Kind, c.Targets = Static, []*types.Func{fn}
			return c
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				break
			}
			if types.IsInterface(sel.Recv()) {
				c.Kind = Interface
				c.Targets = cha.implementations(sel.Recv(), fn.Name())
				return c
			}
			c.Kind, c.Targets = Static, []*types.Func{fn}
			return c
		}
		// Package-qualified call: pkg.Fn.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			c.Kind, c.Targets = Static, []*types.Func{fn}
			return c
		}
	}
	c.Kind = Dynamic
	return c
}

// StaticCallee resolves a call's static callee function — a plain or
// package-qualified function, or a method on a concrete receiver — or nil
// for builtins, conversions, interface dispatch, and function values. The
// summary layer uses it to key seeded knowledge and facts.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if s := info.Selections[fun]; s != nil {
			if types.IsInterface(s.Recv()) {
				return nil
			}
			fn, _ := s.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// chaIndex is the type universe for interface resolution: every named type
// visible from the analyzed package.
type chaIndex struct {
	named []*types.Named
}

// newCHA collects the named types of pkg and all packages transitively
// reachable through its imports, in deterministic order (scope names are
// sorted; packages visit depth-first in import order).
func newCHA(pkg *types.Package) *chaIndex {
	idx := &chaIndex{}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
				idx.named = append(idx.named, named)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	visit(pkg)
	return idx
}

// implementations returns the concrete methods named name on every type in
// the universe that implements iface (as value or pointer receiver).
func (idx *chaIndex) implementations(iface types.Type, name string) []*types.Func {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, named := range idx.named {
		var impl types.Type
		switch {
		case types.Implements(named, it):
			impl = named
		case types.Implements(types.NewPointer(named), it):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, named.Obj().Pkg(), name)
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	return out
}

// SCCs condenses the intra-package call graph into strongly connected
// components, returned bottom-up: every component appears after the
// components it calls into, so a bottom-up summary fixpoint can process the
// slice front to back. Edges to functions outside the package (or without
// bodies) do not participate — the summary layer resolves them through
// facts instead.
func (g *Graph) SCCs() [][]*Node {
	// Tarjan's algorithm, iterative state kept per node.
	index := make(map[*Node]int, len(g.Nodes))
	low := make(map[*Node]int, len(g.Nodes))
	onStack := make(map[*Node]bool, len(g.Nodes))
	var stack []*Node
	var sccs [][]*Node
	next := 0

	var strongconnect func(n *Node)
	strongconnect = func(n *Node) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, c := range n.Calls {
			for _, t := range c.Targets {
				m := g.byFn[t]
				if m == nil {
					continue
				}
				if _, visited := index[m]; !visited {
					strongconnect(m)
					if low[m] < low[n] {
						low[n] = low[m]
					}
				} else if onStack[m] && index[m] < low[n] {
					low[n] = index[m]
				}
			}
		}
		if low[n] == index[n] {
			var comp []*Node
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				comp = append(comp, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, n := range g.Nodes {
		if _, visited := index[n]; !visited {
			strongconnect(n)
		}
	}
	// Tarjan emits components in reverse topological order of the
	// condensation — exactly the bottom-up order we promise.
	return sccs
}
