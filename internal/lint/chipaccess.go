package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"meda/internal/lint/analysis"
)

// ChipAccess flags uses of chip.Chip from code that runs on another
// goroutine: methods and function literals launched with a go statement.
// chip.Chip is deliberately unsynchronized — the simulator owns it, and the
// fleet service runs each chip on its own worker goroutine — so code on
// another goroutine must work from an immutable snapshot taken on the
// launching goroutine (chip.SnapshotForceField), never from the live chip.
// This is the static counterpart of the -race runs in make verify: it
// catches the pattern even on paths no test happens to race.
var ChipAccess = &analysis.Analyzer{
	Name: "chipaccess",
	Doc:  "flags reads of live chip.Chip state from background goroutines",
	Run:  runChipAccess,
}

const chipPkgPath = "meda/internal/chip"

func runChipAccess(pass *analysis.Pass) error {
	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, name string) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.Reportf(pos,
			"chip.Chip.%s accessed from a background goroutine; take a SnapshotForceField on the submitting goroutine and capture the snapshot instead",
			name)
	}
	scanAsync := func(body ast.Node) {
		ast.Inspect(body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if isChipType(pass.TypesInfo.Types[sel.X].Type) {
				report(sel.Sel.Pos(), sel.Sel.Name)
			}
			return true
		})
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			// go c.Method(...) runs Method itself asynchronously;
			// go func(){...}(...) runs the literal's body.
			if sel, ok := g.Call.Fun.(*ast.SelectorExpr); ok {
				if isChipType(pass.TypesInfo.Types[sel.X].Type) {
					report(sel.Sel.Pos(), sel.Sel.Name)
				}
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				scanAsync(lit.Body)
			}
			return true
		})
	}
	return nil
}

// isChipType reports whether t is chip.Chip or *chip.Chip.
func isChipType(t types.Type) bool {
	return isNamed(t, chipPkgPath, "Chip")
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
