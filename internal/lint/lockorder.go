package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"meda/internal/lint/analysis"
)

// LockOrder flags inconsistent mutex acquisition order. The analyzer scans
// each function body lexically, tracking which mutexes are held when
// another Lock is issued, and records the resulting "A before B" edges
// package-wide; two functions that acquire the same pair of mutexes in
// opposite orders are a latent deadlock on the concurrent synthesis path
// (sched's Adaptive/Library/Cache mutexes).
// Mutexes are identified by owning type and field (sched.Adaptive.mu), so
// the order is enforced across methods regardless of receiver names.
// Function literals are separate scopes: a goroutine body does not inherit
// the submitter's held set, matching when it actually runs.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "flags mutex pairs acquired in opposite orders in different functions",
	Run:  runLockOrder,
}

type lockEdge struct{ first, second string }

func runLockOrder(pass *analysis.Pass) error {
	info := pass.TypesInfo
	edges := make(map[lockEdge]token.Pos) // first observed position per directed pair

	var scanScope func(body ast.Node)
	scanScope = func(body ast.Node) {
		var held []string
		var queue []ast.Node
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if n != body {
					queue = append(queue, n.Body)
					return false
				}
			case *ast.DeferStmt:
				// defer mu.Unlock() keeps the mutex held for the rest of
				// the (lexical) body; a deferred closure is its own scope.
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					queue = append(queue, lit.Body)
				}
				return false
			case *ast.CallExpr:
				recv, method, ok := mutexCall(info, n)
				if !ok {
					return true
				}
				key := mutexKey(pass, recv)
				switch method {
				case "Lock", "RLock":
					for _, h := range held {
						if h == key {
							continue
						}
						e := lockEdge{h, key}
						if _, seen := edges[e]; !seen {
							edges[e] = n.Pos()
						}
					}
					held = append(held, key)
				case "Unlock", "RUnlock":
					for i := len(held) - 1; i >= 0; i-- {
						if held[i] == key {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
			}
			return true
		})
		for _, b := range queue {
			scanScope(b)
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				scanScope(fd.Body)
			}
		}
	}

	// Report each unordered pair that appears in both directions, at both
	// sites, in deterministic order.
	var conflicts []lockEdge
	for e := range edges {
		if _, rev := edges[lockEdge{e.second, e.first}]; rev && e.first < e.second {
			conflicts = append(conflicts, e)
		}
	}
	sort.Slice(conflicts, func(i, j int) bool {
		return conflicts[i].first+"\x00"+conflicts[i].second < conflicts[j].first+"\x00"+conflicts[j].second
	})
	for _, e := range conflicts {
		rev := lockEdge{e.second, e.first}
		pass.Reportf(edges[e], "%s is locked while holding %s, but %s locks them in the opposite order",
			e.second, e.first, pass.Fset.Position(edges[rev]))
		pass.Reportf(edges[rev], "%s is locked while holding %s, but %s locks them in the opposite order",
			e.first, e.second, pass.Fset.Position(edges[e]))
	}
	return nil
}

// mutexCall decomposes a call into (mutex expression, method name) when it
// is Lock/Unlock/RLock/RUnlock on a sync.Mutex or sync.RWMutex.
func mutexCall(info *types.Info, call *ast.CallExpr) (ast.Expr, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, "", false
	}
	t := info.Types[sel.X].Type
	if !isNamed(t, "sync", "Mutex") && !isNamed(t, "sync", "RWMutex") {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// mutexKey names a mutex so the same lock is recognized across functions:
// struct fields are keyed by owning type ("sched.Adaptive.mu"),
// package-level vars by package, and locals by their declaration site.
func mutexKey(pass *analysis.Pass, expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		t := pass.TypesInfo.Types[e.X].Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			obj := n.Obj()
			if obj.Pkg() != nil {
				return fmt.Sprintf("%s.%s.%s", obj.Pkg().Name(), obj.Name(), e.Sel.Name)
			}
			return obj.Name() + "." + e.Sel.Name
		}
	case *ast.Ident:
		if obj := pass.TypesInfo.ObjectOf(e); obj != nil {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Name() + "." + e.Name
			}
			return fmt.Sprintf("%s@%s", e.Name, pass.Fset.Position(obj.Pos()))
		}
	}
	return types.ExprString(expr)
}
