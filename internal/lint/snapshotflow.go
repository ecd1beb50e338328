package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"meda/internal/lint/analysis"
	"meda/internal/lint/cfg"
	"meda/internal/lint/dataflow"
)

// SnapshotFlow flags live chip-derived force fields crossing a goroutine
// boundary. chipaccess catches direct chip.Chip selectors inside goroutine
// bodies, but a closure over the live chip escapes that check the moment
// it is bound to a variable first:
//
//	field := c.ObservedForceField()     // closes over the live chip
//	go synth.Synthesize(rj, field, opt) // the goroutine now races
//
// The analyzer runs a forward taint analysis per function: a variable is
// tainted when it receives a func-typed value produced from a chip.Chip —
// a method call result other than SnapshotForceField (whose whole point is
// the defensive copy), or a method value like c.ObservedForceField, which
// closes over the chip even unbound — and taint propagates through
// assignments. Sinks are go statements: a tainted variable referenced in
// the launched call's function or argument list, or a live-producing chip
// expression appearing inline there, is reported. Reassigning a variable
// from a snapshot (or any untainted value) clears it, so the analysis
// follows the actual flow rather than the variable's worst historical
// value.
var SnapshotFlow = &analysis.Analyzer{
	Name: "snapshotflow",
	Doc:  "flags live chip force fields captured by background goroutines",
	Run:  runSnapshotFlow,
}

type taintFact = dataflow.VarSet[*types.Var, token.Pos]

func runSnapshotFlow(pass *analysis.Pass) error {
	for _, fb := range funcBodies(pass) {
		runSnapshotFlowBody(pass, fb)
	}
	return nil
}

func runSnapshotFlowBody(pass *analysis.Pass, fb funcBody) {
	info := pass.TypesInfo
	g := cfg.New(fb.Body)
	lat := dataflow.VarSetLattice[*types.Var, token.Pos]{}

	step := func(fact taintFact, n ast.Node, report bool) taintFact {
		if report {
			checkSinks(pass, fact, n)
		}
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, lhs := range as.Lhs {
				v := localVar(info, lhs)
				if v == nil {
					continue
				}
				switch {
				case liveChipValue(info, as.Rhs[i]):
					fact = fact.With(v, as.Rhs[i].Pos())
				case taintedRead(info, fact, as.Rhs[i]):
					fact = fact.With(v, fact[localVar(info, ast.Unparen(as.Rhs[i]))])
				default:
					fact = fact.Without(v)
				}
			}
		}
		return fact
	}

	transfer := func(b *cfg.Block, in taintFact) taintFact {
		for _, n := range b.Nodes {
			in = step(in, n, false)
		}
		return in
	}

	res := dataflow.Forward[taintFact](g, lat, nil, transfer, nil)
	for _, b := range g.Blocks {
		fact := res.In[b]
		for _, n := range b.Nodes {
			fact = step(fact, n, true)
		}
	}
}

// checkSinks reports tainted values escaping into asynchronous execution
// within node n: go statements.
func checkSinks(pass *analysis.Pass, fact taintFact, n ast.Node) {
	info := pass.TypesInfo
	scan := func(root ast.Node) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.Ident:
				v, _ := info.Uses[m].(*types.Var)
				if v == nil {
					return true
				}
				if pos, tainted := fact[v]; tainted {
					pass.Reportf(m.Pos(), "%s holds a live chip force field (built at %s) and crosses a goroutine boundary; snapshot it with SnapshotForceField on the submitting goroutine",
						m.Name, pass.Fset.Position(pos))
				}
			case *ast.CallExpr:
				if liveChipValue(info, m) {
					pass.Reportf(m.Pos(), "live chip force field passed across a goroutine boundary; snapshot it with SnapshotForceField on the submitting goroutine")
					return false
				}
			}
			return true
		})
	}
	cfg.Visit(n, func(m ast.Node) bool {
		if g, ok := m.(*ast.GoStmt); ok {
			scan(g.Call)
			return false
		}
		return true
	})
}

// liveChipValue reports whether e produces a func-typed value that closes
// over live chip.Chip state: a method call on a chip other than
// SnapshotForceField returning a function, or a chip method value (bound
// but uncalled — even SnapshotForceField itself, which only copies once
// actually invoked on the submitting goroutine).
func liveChipValue(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok || !isChipType(info.Types[sel.X].Type) {
			return false
		}
		if sel.Sel.Name == "SnapshotForceField" {
			return false
		}
		return isFuncType(info.Types[e].Type)
	case *ast.SelectorExpr:
		if !isChipType(info.Types[e.X].Type) {
			return false
		}
		return isFuncType(info.Types[e].Type)
	}
	return false
}

// taintedRead reports whether e is a plain read of a tainted variable.
func taintedRead(info *types.Info, fact taintFact, e ast.Expr) bool {
	v := localVar(info, ast.Unparen(e))
	if v == nil {
		return false
	}
	_, tainted := fact[v]
	return tainted
}

func isFuncType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}
