package summary

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"meda/internal/lint/analysis"
	"meda/internal/lint/callgraph"
)

// maxViaChain bounds the length of recorded witness chains; deeper sources
// keep the truncated prefix with an ellipsis.
const maxViaChain = 6

// Source is one allocation source reachable from a function.
type Source struct {
	// Kind names the source: "make", "interface boxing", "defer", ….
	Kind string
	// Via is the call chain below the summarized function that reaches the
	// source (" → "-separated), empty when the source is in the function's
	// own body.
	Via string
	// Pos is the witness position inside the summarized function's body:
	// the offending operation itself, or the call through which the source
	// is reached.
	Pos token.Pos
}

// String renders the source for diagnostics.
func (s Source) String() string {
	if s.Via == "" {
		return s.Kind
	}
	return s.Kind + " via " + s.Via
}

// AllocFacts is the exported allocation summary of one function: the heap
// costs a call into it can incur, one witness per kind, each with its
// bottom-up Via chain. hotalloc consumes these to
// enforce the //meda:hotpath contract; the kinds mirror PR 6's
// allocation-budget postmortem — the regressions that silently re-inflate
// an 8 allocs/op path are exactly make/boxing/closure/defer, not exotic
// escapes.
type AllocFacts struct {
	// Allocs holds the reachable allocation sources, sorted by Kind, one
	// witness per kind.
	Allocs []Source
}

// AFact marks AllocFacts as an analysis fact.
func (*AllocFacts) AFact() {}

// allocFingerprint is the monotone measure for the SCC fixpoint.
func (a *AllocFacts) allocFingerprint() string {
	var sb strings.Builder
	for _, s := range a.Allocs {
		sb.WriteString(s.Kind)
		sb.WriteByte(';')
	}
	return sb.String()
}

// displayName renders a function for witness chains: pkg.Fn or
// pkg.Recv.Fn, with the package omitted for the analyzed package itself.
func displayName(pass *analysis.Pass, fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// AllocSummaries maps the analyzed package's functions to their allocation
// summaries.
type AllocSummaries map[*types.Func]*AllocFacts

// Of resolves an allocation summary for any function: a node of the
// analyzed package, or an upstream function through its imported fact.
func (s AllocSummaries) Of(pass *analysis.Pass, fn *types.Func) *AllocFacts {
	if fn == nil {
		return nil
	}
	if sum, ok := s[fn]; ok {
		return sum
	}
	var fact AllocFacts
	if pass.ImportObjectFact(fn, &fact) {
		return &fact
	}
	return nil
}

// ComputeAllocs builds the package call graph and computes bottom-up
// allocation summaries, exporting an AllocFacts fact for every function
// that can allocate so downstream packages resolve calls into this one.
// The soundness posture matches FnSummary: static calls always contribute;
// interface calls contribute their CHA candidates while narrow; wide
// dispatch and function values are opaque and contribute nothing.
func ComputeAllocs(pass *analysis.Pass) AllocSummaries {
	g := callgraph.Build(pass.Pkg, pass.TypesInfo, pass.Files)
	sums := make(AllocSummaries, len(g.Nodes))
	for _, scc := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				old := ""
				if prev, ok := sums[n.Fn]; ok {
					old = prev.allocFingerprint()
				}
				next := summarizeAllocs(pass, sums, n)
				if next.allocFingerprint() != old {
					changed = true
				}
				sums[n.Fn] = next
			}
		}
	}
	for fn, sum := range sums {
		if len(sum.Allocs) > 0 {
			pass.ExportObjectFact(fn, sum)
		}
	}
	return sums
}

// summarizeAllocs computes one function's allocation summary from its body
// and the current summaries of its callees.
func summarizeAllocs(pass *analysis.Pass, sums AllocSummaries, n *callgraph.Node) *AllocFacts {
	sum := &AllocFacts{}
	add := func(src Source) {
		for _, have := range sum.Allocs {
			if have.Kind == src.Kind {
				return // one witness per kind; first (shallowest) wins
			}
		}
		sum.Allocs = append(sum.Allocs, src)
	}

	scanAllocs(pass, n.Decl, add)

	for _, call := range n.Calls {
		targets := call.Targets
		if call.Kind == callgraph.Interface && len(targets) > maxCHATargets {
			targets = nil // wide dispatch: opaque
		}
		for _, callee := range targets {
			cs := sums.Of(pass, callee)
			if cs == nil {
				continue
			}
			name := displayName(pass, callee)
			for _, src := range cs.Allocs {
				via := name
				if src.Via != "" {
					via = name + " → " + src.Via
				}
				if parts := strings.Split(via, " → "); len(parts) > maxViaChain {
					via = strings.Join(parts[:maxViaChain], " → ") + " → …"
				}
				add(Source{Kind: src.Kind, Via: via, Pos: call.Site.Pos()})
			}
		}
	}

	sort.Slice(sum.Allocs, func(i, j int) bool { return sum.Allocs[i].Kind < sum.Allocs[j].Kind })
	return sum
}

// scanAllocs records the direct allocation sources of one function body.
// go/defer statements and closures are flagged as constructs (the goroutine,
// the deferred frame, the closure object each allocate); their bodies are
// not descended into — the construct finding already gates the site, and a
// deferred call's own allocations surface through its callee summary at the
// call edge anyway.
func scanAllocs(pass *analysis.Pass, decl *ast.FuncDecl, add func(Source)) {
	info := pass.TypesInfo
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capturesOuter(info, n) {
				add(Source{Kind: "closure capture", Pos: n.Pos()})
			}
			return false
		case *ast.GoStmt:
			add(Source{Kind: "go statement", Pos: n.Pos()})
			return false
		case *ast.DeferStmt:
			add(Source{Kind: "defer", Pos: n.Pos()})
			return false
		case *ast.RangeStmt:
			if isMap(info.Types[n.X].Type) {
				add(Source{Kind: "map iteration", Pos: n.Range})
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(Source{Kind: "composite literal allocation", Pos: n.Pos()})
				}
			}
		case *ast.CompositeLit:
			// A slice or map literal allocates its backing store even
			// without &.
			if t := info.Types[n].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					add(Source{Kind: "composite literal allocation", Pos: n.Pos()})
				}
			}
		case *ast.CallExpr:
			scanAllocCall(info, n, add)
		case *ast.AssignStmt:
			// Non-self append: `dst = append(src, …)` with dst ≠ src
			// abandons the amortized-growth pattern and copies on every call.
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if isNonSelfAppend(info, n.Lhs[i], rhs) {
					add(Source{Kind: "append (non-self)", Pos: rhs.Pos()})
				}
			}
			checkBoxedAssign(info, n, add)
		}
		return true
	})
}

// scanAllocCall handles one call's direct allocation contributions:
// make/new builtins, conversions to interface types, and interface boxing
// of concrete arguments at the call boundary.
func scanAllocCall(info *types.Info, call *ast.CallExpr, add func(Source)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(Source{Kind: "make", Pos: call.Pos()})
			case "new":
				add(Source{Kind: "new", Pos: call.Pos()})
			}
			return
		}
	}
	// Conversion to an interface type boxes its operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(info, call.Args[0]) {
			add(Source{Kind: "interface boxing", Pos: call.Pos()})
		}
		return
	}
	// Concrete arguments passed for interface parameters box at the call.
	sig := signatureOfCall(info, call.Fun)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len()-1 {
			pi = sig.Params().Len() - 1
		}
		if pi < 0 || pi >= sig.Params().Len() {
			continue
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == sig.Params().Len()-1 && !call.Ellipsis.IsValid() {
			if sl, ok := pt.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if types.IsInterface(pt) && boxes(info, arg) {
			add(Source{Kind: "interface boxing", Pos: arg.Pos()})
		}
	}
}

// checkBoxedAssign flags assignments that box a concrete value into an
// interface-typed destination.
func checkBoxedAssign(info *types.Info, n *ast.AssignStmt, add func(Source)) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		lt := info.Types[lhs].Type
		if lt == nil {
			if id, ok := lhs.(*ast.Ident); ok {
				if v, ok := info.Defs[id].(*types.Var); ok {
					lt = v.Type()
				}
			}
		}
		if lt != nil && types.IsInterface(lt) && boxes(info, n.Rhs[i]) {
			add(Source{Kind: "interface boxing", Pos: n.Rhs[i].Pos()})
		}
	}
}

// boxes reports whether assigning the expression to an interface
// destination allocates: its static type is concrete and non-pointer-sized
// data moves to the heap. Constants (untyped or typed) are exempt — the
// compiler materializes them in static data, so `panic("msg")` stays free —
// as are nil, pointers, and values already of interface type.
func boxes(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	if tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return false
	}
	t := tv.Type
	if types.IsInterface(t) {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		// Pointer-shaped values fit the interface word without copying.
		return false
	}
	return true
}

// isNonSelfAppend reports whether rhs is append(base, …) whose base is
// spelled differently from the assignment target — the copying shape, as
// opposed to the amortized self-append `s = append(s, x)` (including
// through field paths: `b.g.tos = append(b.g.tos, x)`). A reslice of the
// target itself, `s = append(s[:0], x)`, is the truncate-and-reuse idiom:
// the append writes into s's existing backing array, so it counts as self.
func isNonSelfAppend(info *types.Info, lhs, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	base := ast.Unparen(call.Args[0])
	if sl, ok := base.(*ast.SliceExpr); ok && !sl.Slice3 {
		base = ast.Unparen(sl.X)
	}
	return types.ExprString(ast.Unparen(lhs)) != types.ExprString(base)
}

// capturesOuter reports whether a function literal references a variable
// declared outside itself — the closure must then carry an allocated
// environment; capture-free literals compile to static functions.
func capturesOuter(info *types.Info, lit *ast.FuncLit) bool {
	declared := make(map[*types.Var]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok {
				declared[v] = true
			}
		}
		return true
	})
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				if !declared[v] && !v.IsField() && v.Parent() != nil &&
					v.Pkg() != nil && v.Parent() != v.Pkg().Scope() {
					captures = true
				}
			}
		}
		return !captures
	})
	return captures
}

// signatureOfCall resolves the signature of a call target, rejecting
// conversions and builtins.
func signatureOfCall(info *types.Info, fun ast.Expr) *types.Signature {
	tv := info.Types[fun]
	if tv.Type == nil || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
