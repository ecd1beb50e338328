package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"meda/internal/lint/analysis"
	"meda/internal/lint/cfg"
	"meda/internal/lint/dataflow"
)

// ErrFlow flags error values that are assigned but never consumed: an
// error variable overwritten by a later assignment before any read, or
// still unread on a path that leaves the function. errflow follows each
// error variable through the function's CFG, so `err = f(); err = g()` is caught even across
// branches, while `err = f(); if cond { return err }; use(err)` is not.
//
// Any read counts as consumption — a comparison, a return, passing the
// error onward, wrapping it — because the analyzer enforces that errors
// cannot be silently dropped, not how they are handled. Variables captured
// by closures or whose address is taken are excluded (the closure may
// consume them at any time), as are named result variables (assigning one
// is how a function returns it).
var ErrFlow = &analysis.Analyzer{
	Name: "errflow",
	Doc:  "flags error values overwritten or dropped before any read",
	Run:  runErrFlow,
}

type errFact = dataflow.VarSet[*types.Var, token.Pos]

func runErrFlow(pass *analysis.Pass) error {
	for _, fb := range funcBodies(pass) {
		runErrFlowBody(pass, fb)
	}
	return nil
}

func runErrFlowBody(pass *analysis.Pass, fb funcBody) {
	info := pass.TypesInfo
	escaped := escapedVars(info, fb.Body)
	named := namedResultVars(info, fb.FuncType())
	g := cfg.New(fb.Body)
	lat := dataflow.VarSetLattice[*types.Var, token.Pos]{}

	trackable := func(v *types.Var) bool {
		return v != nil && !escaped[v] && !named[v] && isErrorType(v.Type())
	}

	step := func(fact errFact, n ast.Node, report bool) errFact {
		// Reads consume pending errors; RHS reads precede LHS writes.
		visitShallow(n, func(m ast.Node) bool {
			ident, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			v, _ := info.Uses[ident].(*types.Var)
			if v == nil || isWriteTarget(n, ident) {
				return true
			}
			if _, pending := fact[v]; pending {
				fact = fact.Without(v)
			}
			return true
		})
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				v := localVar(info, lhs)
				if !trackable(v) {
					continue
				}
				if pos, pending := fact[v]; pending {
					if report {
						pass.Reportf(lhs.Pos(), "%s is overwritten before the error assigned at %s is checked",
							v.Name(), pass.Fset.Position(pos))
					}
					fact = fact.Without(v)
				}
				if errProducingRHS(n, i) {
					fact = fact.With(v, n.Pos())
				}
			}
		case *ast.DeclStmt:
			// var err error = f() — same contract as := assignments.
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				break
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				for i, name := range vs.Names {
					v, _ := info.Defs[name].(*types.Var)
					if !trackable(v) {
						continue
					}
					var rhs ast.Expr
					if len(vs.Values) == len(vs.Names) {
						rhs = vs.Values[i]
					} else {
						rhs = vs.Values[0] // tuple form
					}
					if derivesFromCall(rhs) {
						fact = fact.With(v, name.Pos())
					}
				}
			}
		}
		return fact
	}

	transfer := func(b *cfg.Block, in errFact) errFact {
		for _, n := range b.Nodes {
			in = step(in, n, false)
		}
		return in
	}

	res := dataflow.Forward[errFact](g, lat, nil, transfer, nil)
	for _, b := range g.Blocks {
		fact := res.In[b]
		for _, n := range b.Nodes {
			fact = step(fact, n, true)
		}
	}
	// Errors still pending where control leaves the function were dropped
	// on at least one path.
	for v, pos := range res.In[g.Exit] {
		pass.Reportf(pos, "error assigned to %s is not checked before the function returns on some path", v.Name())
	}
}

// errProducingRHS reports whether the i-th assignment target receives a
// freshly produced error — the result of a call (including a multi-result
// call assigned as a tuple) or a type assertion. Copies of other
// variables and nil stores do not start tracking.
func errProducingRHS(as *ast.AssignStmt, i int) bool {
	var rhs ast.Expr
	if len(as.Rhs) == len(as.Lhs) {
		rhs = as.Rhs[i]
	} else if len(as.Rhs) == 1 {
		rhs = as.Rhs[0]
	} else {
		return false
	}
	return derivesFromCall(rhs)
}

func derivesFromCall(e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.CallExpr, *ast.TypeAssertExpr:
		return true
	}
	return false
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
