package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"meda/internal/lint/analysis"
	"meda/internal/lint/summary"
)

// HotAlloc enforces declared allocation budgets interprocedurally. A
// function annotated
//
//	//meda:hotpath
//
// in its doc comment promises that calling it incurs no hidden heap cost —
// the discipline behind the MDP builder's slab reuse and the solver sweeps'
// zero-alloc inner loops: one stray make, interface boxing, closure, defer,
// or map iteration re-inflates an 8 allocs/op path back to thousands long
// before the bench gate notices. The analyzer computes bottom-up
// allocation summaries (summary.ComputeAllocs) over the package call graph
// and reports every allocation source transitively reachable from an
// annotated function, with the witness call chain, across package
// boundaries through analysis Facts.
//
// The approved amortized-growth pattern — `s = append(s, x)` assigning back
// to the appended slice (including field slabs like b.tos) — is not
// flagged: its amortized cost is the budget the contract grants. Constant
// operands of interface conversions (panic("message")) are exempt too: the
// compiler materializes them statically.
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flags heap allocations reachable from //meda:hotpath functions",
	Run:  runHotAlloc,
}

// hotpathDirective is the doc-comment annotation declaring an allocation
// budget contract.
const hotpathDirective = "//meda:hotpath"

func runHotAlloc(pass *analysis.Pass) error {
	sums := summary.ComputeAllocs(pass)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, hotpathDirective) {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := sums.Of(pass, fn)
			if sum == nil {
				continue
			}
			for _, src := range sum.Allocs {
				pos := src.Pos
				if !pos.IsValid() {
					pos = fd.Name.Pos()
				}
				pass.Reportf(pos, "%s is marked //meda:hotpath but reaches %s", fn.Name(), src)
			}
		}
	}
	return nil
}

// hasDirective reports whether a comment group contains the directive as a
// whole comment line (directives never carry trailing text).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}
