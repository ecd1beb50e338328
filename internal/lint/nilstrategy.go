package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"meda/internal/lint/analysis"
	"meda/internal/lint/cfg"
	"meda/internal/lint/dataflow"
)

// NilStrategy flags flow paths where the result of a strategy lookup is
// used without checking the lookup's ok flag. The strategy cache and
// library (sched.Cache.Lookup, sched.Library.Lookup) follow the comma-ok
// contract: the returned policy is meaningful only when the final bool
// result is true, so a path that reaches a use of the policy without
// passing through a check of ok (or a nil/len test of the policy itself)
// routes droplets with a stale or zero policy. The analyzer solves a
// forward may-analysis per function: a lookup result enters the "possibly
// invalid" set at the call and leaves it on the branch edges a guard
// implies (the true edge of `if ok`, the false edge of `if p == nil`);
// any read of a still-possibly-invalid variable is reported.
//
// A lookup is any call to a function or method named Lookup with at least
// two results of which the last is bool, so the check applies to future
// caches without listing them here.
var NilStrategy = &analysis.Analyzer{
	Name: "nilstrategy",
	Doc:  "flags strategy lookup results used before their ok flag is checked",
	Run:  runNilStrategy,
}

// nilOrigin is the provenance of one possibly-invalid lookup result.
type nilOrigin struct {
	pos token.Pos  // position of the lookup call
	ok  *types.Var // the bool result variable guarding it; nil when discarded
}

type nilFact = dataflow.VarSet[*types.Var, nilOrigin]

func runNilStrategy(pass *analysis.Pass) error {
	for _, fb := range funcBodies(pass) {
		runNilStrategyBody(pass, fb)
	}
	return nil
}

func runNilStrategyBody(pass *analysis.Pass, fb funcBody) {
	info := pass.TypesInfo
	escaped := escapedVars(info, fb.Body)
	g := cfg.New(fb.Body, noReturnCall(info))
	lat := dataflow.VarSetLattice[*types.Var, nilOrigin]{}

	step := func(fact nilFact, n ast.Node, report bool) nilFact {
		// Reads of a possibly-invalid variable first: in `p2 := p` or
		// `use(p)` the RHS executes before any LHS write takes effect.
		visitShallow(n, func(m ast.Node) bool {
			ident, ok := m.(*ast.Ident)
			if !ok {
				return !isGuardExpr(info, m, fact)
			}
			v, _ := info.Uses[ident].(*types.Var)
			if v == nil {
				return true
			}
			origin, tracked := fact[v]
			if !tracked || isWriteTarget(n, ident) {
				return true
			}
			if report {
				if origin.ok != nil {
					pass.Reportf(ident.Pos(), "%s may be invalid: ok result of the lookup at %s is not checked on this path",
						ident.Name, pass.Fset.Position(origin.pos))
				} else {
					pass.Reportf(ident.Pos(), "%s may be invalid: the lookup at %s discards its ok result and %s is not nil-checked on this path",
						ident.Name, pass.Fset.Position(origin.pos), ident.Name)
				}
			}
			// One report per path suffices; stop tracking the variable.
			fact = fact.Without(v)
			return true
		})
		// Writes: a lookup assignment starts tracking its first result;
		// any other assignment to a tracked variable stops it.
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if v := localVar(info, lhs); v != nil {
					fact = fact.Without(v)
				}
			}
			if call, okVar, isLookup := lookupAssign(info, as); isLookup {
				v := localVar(info, as.Lhs[0])
				if v != nil && !escaped[v] && !isBlank(as.Lhs[0]) {
					fact = fact.With(v, nilOrigin{pos: call.Pos(), ok: okVar})
				}
			}
		}
		return fact
	}

	transfer := func(b *cfg.Block, in nilFact) nilFact {
		for _, n := range b.Nodes {
			in = step(in, n, false)
		}
		return in
	}
	edge := func(b *cfg.Block, succ int, out nilFact) nilFact {
		if b.Cond == nil {
			return out
		}
		return refineNil(info, out, b.Cond, succ == 0)
	}

	res := dataflow.Forward[nilFact](g, lat, nil, transfer, edge)
	for _, b := range g.Blocks {
		fact := res.In[b]
		for _, n := range b.Nodes {
			fact = step(fact, n, true)
		}
	}
}

// lookupAssign decomposes `p, ..., ok := x.Lookup(...)`: an assignment
// whose single RHS is a call to a function named Lookup with ≥2 results,
// the last of type bool. It returns the call and the variable bound to the
// ok result (nil when blank or when the assignment shape does not expose
// it).
func lookupAssign(info *types.Info, as *ast.AssignStmt) (*ast.CallExpr, *types.Var, bool) {
	if len(as.Rhs) != 1 || len(as.Lhs) < 2 {
		return nil, nil, false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || calleeName(info, call) != "Lookup" {
		return nil, nil, false
	}
	tup, ok := info.Types[call].Type.(*types.Tuple)
	if !ok || tup.Len() < 2 || tup.Len() != len(as.Lhs) {
		return nil, nil, false
	}
	last, ok := tup.At(tup.Len() - 1).Type().(*types.Basic)
	if !ok || last.Kind() != types.Bool {
		return nil, nil, false
	}
	return call, localVar(info, as.Lhs[len(as.Lhs)-1]), true
}

// calleeName returns the bare name of a call's callee (method or function),
// or "" when it cannot be resolved.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isWriteTarget reports whether ident appears as a plain assignment target
// of n (so the occurrence is a write, not a read).
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isWriteTarget(n ast.Node, ident *ast.Ident) bool {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if lhs == ast.Expr(ident) {
			return true
		}
	}
	return false
}

// isGuardExpr reports whether expr is a guard over a tracked variable — a
// nil comparison, a len() test, or a read of a guarding ok variable — whose
// inner reads must not themselves count as uses. The branch edges apply
// the guard's meaning via refineNil.
func isGuardExpr(info *types.Info, n ast.Node, fact nilFact) bool {
	switch e := n.(type) {
	case *ast.BinaryExpr:
		if e.Op != token.EQL && e.Op != token.NEQ {
			return false
		}
		return isNilCheckOperands(info, e, fact)
	case *ast.CallExpr:
		// len(p) over a tracked variable.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "len" && info.Uses[id] == types.Universe.Lookup("len") {
			if len(e.Args) == 1 {
				if v := localVar(info, ast.Unparen(e.Args[0])); v != nil {
					_, tracked := fact[v]
					return tracked
				}
			}
		}
	case *ast.Ident:
		// Reading the guarding ok variable is the check itself.
		if v, ok := info.Uses[e].(*types.Var); ok {
			for _, origin := range fact {
				if origin.ok == v {
					return true
				}
			}
		}
	}
	return false
}

// isNilCheckOperands reports whether one side of an ==/!= is nil and the
// other a tracked variable.
func isNilCheckOperands(info *types.Info, e *ast.BinaryExpr, fact nilFact) bool {
	varSide := func(x, y ast.Expr) bool {
		if !isUntypedNil(info, y) {
			return false
		}
		v := localVar(info, ast.Unparen(x))
		if v == nil {
			return false
		}
		_, tracked := fact[v]
		return tracked
	}
	return varSide(e.X, e.Y) || varSide(e.Y, e.X)
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil" && info.Uses[id] == types.Universe.Lookup("nil")
}

// refineNil applies what a branch condition implies on one edge: on the
// edge where the guard proves the result valid, tracked variables leave
// the possibly-invalid set.
func refineNil(info *types.Info, fact nilFact, cond ast.Expr, isTrue bool) nilFact {
	switch e := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return refineNil(info, fact, e.X, !isTrue)
		}
	case *ast.BinaryExpr:
		switch {
		case e.Op == token.LAND && isTrue, e.Op == token.LOR && !isTrue:
			// Both conjuncts hold on this edge.
			return refineNil(info, refineNil(info, fact, e.X, isTrue), e.Y, isTrue)
		case e.Op == token.NEQ && isTrue, e.Op == token.EQL && !isTrue,
			e.Op == token.GTR && isTrue, e.Op == token.LSS && isTrue:
			// p != nil proven, or p == nil refuted: p is valid here. The
			// same for the len forms len(p) != 0, len(p) == 0, len(p) > 0,
			// and 0 < len(p) against the literal 0.
			if v := nilComparedVar(info, e, fact); v != nil {
				return fact.Without(v)
			}
		}
	case *ast.Ident:
		if !isTrue {
			return fact
		}
		// The guard variable itself: `if ok { ... }`.
		if v, ok := info.Uses[e].(*types.Var); ok {
			for tracked, origin := range fact {
				if origin.ok == v {
					fact = fact.Without(tracked)
				}
			}
		}
	}
	return fact
}

// nilComparedVar extracts the tracked variable from `p ==/!= nil` or
// `len(p) ==/!= 0`, or nil when the comparison is not such a guard.
func nilComparedVar(info *types.Info, e *ast.BinaryExpr, fact nilFact) *types.Var {
	extract := func(x, y ast.Expr) *types.Var {
		var inner ast.Expr
		switch {
		case isUntypedNil(info, y):
			inner = ast.Unparen(x)
		case isZeroLiteral(y):
			call, ok := ast.Unparen(x).(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return nil
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "len" || info.Uses[id] != types.Universe.Lookup("len") {
				return nil
			}
			inner = ast.Unparen(call.Args[0])
		default:
			return nil
		}
		v := localVar(info, inner)
		if v == nil {
			return nil
		}
		if _, tracked := fact[v]; !tracked {
			return nil
		}
		return v
	}
	if v := extract(e.X, e.Y); v != nil {
		return v
	}
	return extract(e.Y, e.X)
}

func isZeroLiteral(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Value == "0"
}
