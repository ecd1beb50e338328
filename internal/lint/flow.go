package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"meda/internal/lint/analysis"
	"meda/internal/lint/cfg"
)

// funcBody is one analysis scope for the flow-sensitive analyzers: a
// function declaration's body or a function literal's body. Closures never
// share a CFG with their enclosing function (they run at call time, often
// on another goroutine), so each body is solved independently.
type funcBody struct {
	Body *ast.BlockStmt
	// Decl is the enclosing declaration when the body belongs to one
	// directly (nil for function literals).
	Decl *ast.FuncDecl
	// Type is the literal's type when the body belongs to a FuncLit.
	Type *ast.FuncType
}

// FuncType returns the signature AST of the scope, from whichever of
// Decl/Type is set.
func (fb funcBody) FuncType() *ast.FuncType {
	if fb.Decl != nil {
		return fb.Decl.Type
	}
	return fb.Type
}

// funcBodies collects every function body in the package — declarations and
// literals, however deeply nested — each as its own scope.
func funcBodies(pass *analysis.Pass) []funcBody {
	var out []funcBody
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					out = append(out, funcBody{Body: n.Body, Decl: n})
				}
			case *ast.FuncLit:
				out = append(out, funcBody{Body: n.Body, Type: n.Type})
			}
			return true
		})
	}
	return out
}

// escapedVars returns the local variables of body that a flow-sensitive,
// single-scope analysis cannot track soundly: variables referenced inside
// nested function literals (the closure may read or write them at any
// time) and variables whose address is taken.
func escapedVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	escaped := make(map[*types.Var]bool)
	var scan func(n ast.Node, inLit bool)
	scan = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m.Body != nil {
					scan(m.Body, true)
				}
				return false
			case *ast.UnaryExpr:
				if m.Op == token.AND {
					if id, ok := m.X.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok {
							escaped[v] = true
						}
					}
				}
			case *ast.Ident:
				if !inLit {
					return true
				}
				if v, ok := info.Uses[m].(*types.Var); ok {
					escaped[v] = true
				}
				if v, ok := info.Defs[m].(*types.Var); ok {
					escaped[v] = true
				}
			}
			return true
		})
	}
	scan(body, false)
	return escaped
}

// visitShallow walks the go/ast content of one CFG block node, unwrapping
// cfg markers and pruning nested function literals, which are separate
// analysis scopes.
func visitShallow(n ast.Node, f func(ast.Node) bool) {
	cfg.Visit(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return f(m)
	})
}

// localVar resolves an identifier to the local variable it reads or
// writes, or nil.
func localVar(info *types.Info, e ast.Expr) *types.Var {
	ident, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[ident]
	if obj == nil {
		obj = info.Defs[ident]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Name() == "_" || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil // blank, package-level, or not a variable
	}
	return v
}

// namedResultVars returns the named result variables of a signature AST,
// resolved through the type info. Analyses exclude these: assigning one is
// how a function returns it.
func namedResultVars(info *types.Info, ft *ast.FuncType) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	if ft == nil || ft.Results == nil {
		return out
	}
	for _, field := range ft.Results.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				out[v] = true
			}
		}
	}
	return out
}

// noReturnCall returns the cfg.New predicate for calls that never return:
// the panic builtin, os.Exit, and log.Fatal, log.Fatalf and log.Fatalln,
// each resolved through info, so a shadowing local or a method of the same
// name does not match.
func noReturnCall(info *types.Info) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				return b.Name() == "panic"
			}
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
			return false
		}
		switch fn.Pkg().Path() + "." + fn.Name() {
		case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
		return false
	}
}
