package lint

import (
	"go/ast"
	"go/types"

	"meda/internal/lint/analysis"
)

// WaitGroup flags `go func() { wg.Add(1); … }()`: an Add inside the
// goroutine it counts races wg.Wait, which can pass before the goroutine
// is scheduled. Add must happen on the launching side, before the go
// statement. Seeded at the tree's worker pool, webhook notifier and
// daemon listeners, the mistake passed every test, -race included
// (DESIGN.md §7). Go 1.25's vet ships an equivalent waitgroup check.
var WaitGroup = &analysis.Analyzer{
	Name: "waitgroup",
	Doc:  "flags WaitGroup.Add inside the goroutine it counts",
	Run:  runWaitGroup,
}

// runWaitGroup flags wg.Add calls inside go-launched function literals on
// a WaitGroup captured from the launching scope, directly (wg) or as a
// field of a captured value (n.wg).
func runWaitGroup(pass *analysis.Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			// Variables declared inside the literal are its own; a captured
			// WaitGroup is any other one.
			declared := make(map[*types.Var]bool)
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := info.Defs[id].(*types.Var); ok {
						declared[v] = true
					}
				}
				return true
			})
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Add" {
					return true
				}
				s := info.Selections[sel]
				if s == nil || !isWaitGroup(s.Recv()) {
					return true
				}
				if v, ok := info.Uses[rootIdent(sel.X)].(*types.Var); ok && !declared[v] {
					pass.Reportf(call.Pos(),
						"WaitGroup.Add inside the goroutine it counts races Wait: call Add before the go statement")
				}
				return true
			})
			return true
		})
	}
	return nil
}

// rootIdent returns the variable at the root of a selector chain (n in
// n.wg, wg in wg), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isWaitGroup reports whether t is sync.WaitGroup or *sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
