package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"meda/internal/lint/analysis"
	"meda/internal/lint/cfg"
	"meda/internal/lint/dataflow"
)

// LockHeld flags potentially blocking operations performed while a mutex
// is held. On the concurrent routing path a goroutine that blocks on a
// channel or a WaitGroup while holding one of the sched mutexes stalls
// every routing decision behind it — and, combined with another goroutine
// that needs the same mutex, deadlocks the scheduler. The analyzer
// runs in two layers:
//
// First, a package-local fixpoint infers which functions may block: a
// function blocks if its body (function literals, go statements, and
// defers excluded — they run elsewhere or at return) contains a channel
// send or receive, a select without a default clause, a call to a known
// blocking primitive (sync.WaitGroup.Wait, sync.Cond.Wait, time.Sleep),
// or a call to another may-block function. The results are exported as
// MayBlock facts, so when the driver analyzes packages in dependency
// order, downstream passes see that a function in an imported package
// blocks three frames down without any hard-coded list.
//
// Second, a forward dataflow pass per function tracks the set of held
// mutexes (Lock adds, Unlock removes; a deferred Unlock keeps the mutex
// held to function end by design) and reports any may-block operation
// reached while the set is non-empty. Select statements with a default
// clause are non-blocking, as are the communication operations in select
// clause headers — the cfg package's Select/Comm markers carry exactly
// this distinction.
var LockHeld = &analysis.Analyzer{
	Name: "lockheld",
	Doc:  "flags potentially blocking operations while a mutex is held",
	Run:  runLockHeld,
}

// MayBlock is the fact lockheld exports for every package-level function
// or method that may block its calling goroutine.
type MayBlock struct {
	// Reason names the blocking operation the function bottoms out in.
	Reason string
}

// AFact marks MayBlock as an analysis fact.
func (*MayBlock) AFact() {}

// seededBlocking are the blocking primitives the inference bottoms out in,
// keyed by analysis.ObjectKey form.
var seededBlocking = map[string]string{
	"sync.WaitGroup.Wait": "sync.WaitGroup.Wait",
	"sync.Cond.Wait":      "sync.Cond.Wait",
	"time.Sleep":          "time.Sleep",
}

func runLockHeld(pass *analysis.Pass) error {
	local := inferMayBlock(pass)
	for fn, reason := range local {
		pass.ExportObjectFact(fn, &MayBlock{Reason: reason})
	}
	for _, fb := range funcBodies(pass) {
		runLockHeldBody(pass, fb, local)
	}
	return nil
}

// inferMayBlock computes the package-local may-block set: a fixpoint over
// the package's call graph seeded with directly blocking bodies.
func inferMayBlock(pass *analysis.Pass) map[*types.Func]string {
	info := pass.TypesInfo
	type declInfo struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var decls []declInfo
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, declInfo{fn: fn, body: fd.Body})
		}
	}
	blocking := make(map[*types.Func]string)
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if _, done := blocking[d.fn]; done {
				continue
			}
			if reason, ok := bodyMayBlock(pass, d.body, blocking); ok {
				blocking[d.fn] = reason
				changed = true
			}
		}
	}
	return blocking
}

// bodyMayBlock scans one function body for a blocking operation on the
// calling goroutine, treating function literals, go statements, and defers
// as opaque (their bodies run elsewhere or at return, after the scan's
// question — "can a call into this function block?" — is already
// answered).
func bodyMayBlock(pass *analysis.Pass, body *ast.BlockStmt, local map[*types.Func]string) (string, bool) {
	var reason string
	var scan func(n ast.Node)
	scan = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if reason != "" {
				return false
			}
			switch m := m.(type) {
			case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				return false
			case *ast.SendStmt:
				reason = "channel send"
				return false
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					reason = "channel receive"
					return false
				}
			case *ast.RangeStmt:
				if isChannelType(pass.TypesInfo.Types[m.X].Type) {
					reason = "range over channel"
					return false
				}
			case *ast.SelectStmt:
				if !selectHasDefault(m) {
					reason = "select without default"
					return false
				}
				// A select with a default never blocks; its clause headers'
				// channel operations execute only once chosen.
				for _, st := range m.Body.List {
					if c, ok := st.(*ast.CommClause); ok {
						for _, bst := range c.Body {
							scan(bst)
						}
					}
				}
				return false
			case *ast.CallExpr:
				if r, ok := callMayBlock(pass, m, local); ok {
					reason = r
					return false
				}
			}
			return true
		})
	}
	scan(body)
	return reason, reason != ""
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, st := range s.Body.List {
		if c, ok := st.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}

// callMayBlock resolves a call's static callee and reports whether it may
// block: a seeded primitive, a package-local may-block function, or a
// function another package's pass exported a MayBlock fact about. Calls
// that cannot be resolved statically (interface methods, function values)
// are assumed non-blocking to keep the analyzer quiet on dynamic code.
func callMayBlock(pass *analysis.Pass, call *ast.CallExpr, local map[*types.Func]string) (string, bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	key, ok := analysis.ObjectKey(fn)
	if !ok {
		return "", false
	}
	if prim, ok := seededBlocking[key]; ok {
		return prim, true
	}
	if reason, ok := local[fn]; ok {
		return fmt.Sprintf("%s (may block: %s)", key, reason), true
	}
	var fact MayBlock
	if pass.ImportObjectFact(fn, &fact) {
		return fmt.Sprintf("%s (may block: %s)", key, fact.Reason), true
	}
	return "", false
}

// calleeFunc resolves the static callee of a call, or nil for dynamic
// calls, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if s := info.Selections[fun]; s != nil {
			fn, _ := s.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call: pkg.Fn.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func isChannelType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

type heldFact = dataflow.VarSet[string, token.Pos]

// runLockHeldBody solves the held-mutex problem over one function body and
// reports blocking operations reached with a non-empty held set.
func runLockHeldBody(pass *analysis.Pass, fb funcBody, local map[*types.Func]string) {
	info := pass.TypesInfo
	g := cfg.New(fb.Body)
	lat := dataflow.VarSetLattice[string, token.Pos]{}

	step := func(fact heldFact, n ast.Node, report bool) heldFact {
		if report && len(fact) > 0 {
			if reason, pos, ok := nodeMayBlock(pass, n, local); ok {
				pass.Reportf(pos, "potentially blocking operation (%s) while holding %s",
					reason, describeHeld(pass, fact))
			}
		}
		// Lock-set updates after the block check: mu.Lock() itself may wait,
		// but that contention is lockorder's concern, not a blocking call
		// under this mutex.
		visitShallow(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.GoStmt, *ast.DeferStmt:
				// A deferred Unlock releases at return: the mutex stays held
				// for the rest of the body. Goroutine bodies are separate
				// scopes.
				return false
			case *ast.CallExpr:
				recv, method, ok := mutexCall(info, m)
				if !ok {
					return true
				}
				key := mutexKey(pass, recv)
				switch method {
				case "Lock", "RLock":
					fact = fact.With(key, m.Pos())
				case "Unlock", "RUnlock":
					fact = fact.Without(key)
				}
			}
			return true
		})
		return fact
	}

	transfer := func(b *cfg.Block, in heldFact) heldFact {
		for _, n := range b.Nodes {
			in = step(in, n, false)
		}
		return in
	}

	res := dataflow.Forward[heldFact](g, lat, nil, transfer, nil)
	for _, b := range g.Blocks {
		fact := res.In[b]
		for _, n := range b.Nodes {
			fact = step(fact, n, true)
		}
	}
}

// nodeMayBlock reports the first blocking operation within one CFG node,
// skipping scopes that do not run here (function literals, go statements,
// defers) and honoring the cfg markers: a Select marker blocks only
// without a default clause, and a Comm node's channel operation is decided
// by its select, not blocking where it appears.
func nodeMayBlock(pass *analysis.Pass, n ast.Node, local map[*types.Func]string) (string, token.Pos, bool) {
	if sel, ok := n.(*cfg.Select); ok {
		if sel.Blocking {
			return "select without default", sel.Pos(), true
		}
		return "", token.NoPos, false
	}
	if _, ok := n.(*cfg.Comm); ok {
		return "", token.NoPos, false
	}
	var reason string
	var pos token.Pos
	visitShallow(n, func(m ast.Node) bool {
		if reason != "" {
			return false
		}
		switch m := m.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			reason, pos = "channel send", m.Arrow
			return false
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				reason, pos = "channel receive", m.OpPos
				return false
			}
		case *ast.CallExpr:
			if r, ok := callMayBlock(pass, m, local); ok {
				reason, pos = "call to "+r, m.Pos()
				return false
			}
		}
		return true
	})
	return reason, pos, reason != ""
}

// describeHeld renders the held mutex set deterministically, each with its
// lock site.
func describeHeld(pass *analysis.Pass, fact heldFact) string {
	keys := make([]string, 0, len(fact))
	for k := range fact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s (locked at %s)", k, pass.Fset.Position(fact[k]))
	}
	return out
}
