package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"meda/internal/lint/analysis"
	"meda/internal/lint/summary"
)

// GoroutineLeak flags goroutines that can block forever on a channel
// operation with no matching counterpart and no escape hatch — the
// whole-program upgrade of lockheld's MayBlock reasoning. A goroutine
// launched with `go` that sends on an unbuffered channel nobody ever
// receives from (or receives from a channel nothing sends to or closes)
// parks permanently: under fleet load, every leaked worker or shutdown
// goroutine is memory and a semaphore slot that never comes back.
//
// The analyzer reasons per enclosing function over the channels it creates
// itself (`ch := make(chan T)`): for every `go` statement, it collects the
// channel operations the goroutine performs — directly, or any number of
// call frames down through the interprocedural summaries (a helper that
// does `ch <- v` three frames deep still counts, across package boundaries
// via Facts) — and requires a counterpart somewhere else in the enclosing
// function: a receive (or range) for a send, a send or close for a
// receive. Reports land on the `go` statement.
//
// The analysis stays quiet in exactly the situations it cannot see:
// channels that escape the enclosing function (stored, returned, captured
// beyond the goroutine, or passed to a callee whose summary marks the
// parameter escaping) are skipped, sends on buffered channels are exempt
// (the buffer absorbs them), and an operation wrapped in a select with a
// default clause or with multiple arms (a done/ctx.Done escape hatch) is
// considered guarded.
var GoroutineLeak = &analysis.Analyzer{
	Name: "goroutineleak",
	Doc:  "flags goroutines blocked forever on channels with no counterpart operation",
	Run:  runGoroutineLeak,
}

func runGoroutineLeak(pass *analysis.Pass) error {
	sums := summary.Compute(pass)
	for _, fb := range funcBodies(pass) {
		runGoroutineLeakBody(pass, sums, fb)
	}
	return nil
}

// chanOps records what one zone (a particular goroutine, or the rest of
// the function) does to one channel.
type chanOps struct {
	send, recv, close bool
	// guarded is set when every goroutine-side operation sits inside a
	// select with a default or with multiple arms.
	guarded bool
	pos     token.Pos
}

// localChan describes a channel created by the enclosing function.
type localChan struct {
	buffered bool
	escaped  bool
}

func runGoroutineLeakBody(pass *analysis.Pass, sums summary.Summaries, fb funcBody) {
	chans := collectLocalChans(pass, sums, fb.Body)
	if len(chans) == 0 {
		return
	}

	// Zone -1 is "the enclosing function outside the goroutine under
	// consideration". For each go statement we gather the goroutine's ops
	// and everything else's ops, then compare.
	var goStmts []*ast.GoStmt
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			goStmts = append(goStmts, g)
		}
		return true
	})
	if len(goStmts) == 0 {
		return
	}

	for _, g := range goStmts {
		inside := make(map[*types.Var]*chanOps)
		outside := make(map[*types.Var]*chanOps)
		collectOps(pass, sums, g, chans, inside)
		collectOpsOutside(pass, sums, fb.Body, g, chans, outside)
		for v, ops := range inside {
			ch := chans[v]
			if ch == nil || ch.escaped || ops.guarded {
				continue
			}
			out := outside[v]
			if ops.send && !ch.buffered && (out == nil || !out.recv) {
				pass.Reportf(g.Go, "goroutine sends on %s but the enclosing function never receives from it: goroutine may leak", v.Name())
				continue
			}
			if ops.recv && !ops.send && (out == nil || (!out.send && !out.close)) && !ops.close {
				pass.Reportf(g.Go, "goroutine receives on %s but nothing sends on or closes it: goroutine may leak", v.Name())
			}
		}
	}
}

// collectLocalChans finds the channels the body makes itself and decides
// whether they escape the function's view: address taken, returned, stored
// into a non-local, sent as a value, or passed to a call whose summary the
// analysis cannot resolve (or that marks the parameter escaping).
func collectLocalChans(pass *analysis.Pass, sums summary.Summaries, body *ast.BlockStmt) map[*types.Var]*localChan {
	info := pass.TypesInfo
	chans := make(map[*types.Var]*localChan)

	// Pass 1: find `ch := make(chan T[, n])` definitions.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			v := localVar(info, lhs)
			if v == nil || !isChannelType(v.Type()) {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				continue
			}
			if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
				continue
			}
			lc := &localChan{}
			if len(call.Args) >= 2 {
				tv := info.Types[call.Args[1]]
				// A non-constant or nonzero capacity counts as buffered
				// (conservative: buffered sends are exempt).
				if tv.Value == nil || tv.Value.String() != "0" {
					lc.buffered = true
				}
			}
			if prev, redefined := chans[v]; redefined {
				// Re-made channels (loops) keep the weaker assumption.
				prev.buffered = prev.buffered || lc.buffered
				continue
			}
			chans[v] = lc
		}
		return true
	})
	if len(chans) == 0 {
		return chans
	}

	// Pass 2: escape analysis over the whole body, nested literals
	// included.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lc := chans[localVar(info, n.X)]; lc != nil {
					lc.escaped = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if lc := chans[localVar(info, r)]; lc != nil {
					lc.escaped = true
				}
			}
		case *ast.SendStmt:
			if lc := chans[localVar(info, n.Value)]; lc != nil {
				lc.escaped = true // the channel itself travels through another channel
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				lc := chans[localVar(info, rhs)]
				if lc == nil {
					continue
				}
				if i >= len(n.Lhs) || localVar(info, n.Lhs[i]) == nil {
					lc.escaped = true // stored into a field, index, global, or alias we don't track
				} else if localVar(info, n.Lhs[i]) != localVar(info, rhs) {
					lc.escaped = true // aliased to another local
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if lc := chans[localVar(info, e)]; lc != nil {
					lc.escaped = true
				}
			}
		case *ast.CallExpr:
			// Builtins (close, len, cap) never capture. Calls with a known
			// summary keep tracking unless the parameter escapes there;
			// everything else loses the channel.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, ok := info.Uses[id].(*types.Builtin); ok {
					return true
				}
			}
			for ai, arg := range n.Args {
				v := localVar(info, arg)
				lc := chans[v]
				if lc == nil {
					continue
				}
				ops, known := calleeParamOps(pass, sums, n, ai)
				if !known || ops.Has(summary.OpEscape) {
					lc.escaped = true
				}
			}
		}
		return true
	})
	return chans
}

// calleeParamOps resolves the summary ParamOps a call applies to its ai-th
// argument, reporting whether the callee was resolvable at all.
func calleeParamOps(pass *analysis.Pass, sums summary.Summaries, call *ast.CallExpr, ai int) (summary.ParamOps, bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return 0, false
	}
	sum := sums.Of(pass, fn)
	if sum == nil {
		return 0, false
	}
	if ai >= len(sum.Params) {
		if len(sum.Params) == 0 {
			return 0, true
		}
		ai = len(sum.Params) - 1 // variadic tail
	}
	return sum.Params[ai], true
}

// collectOps gathers the channel operations performed inside one go
// statement — directly or through summarized calls.
func collectOps(pass *analysis.Pass, sums summary.Summaries, g *ast.GoStmt, chans map[*types.Var]*localChan, out map[*types.Var]*chanOps) {
	collectOpsIn(pass, sums, g.Call, chans, out, 0)
	// `go fn(ch)`: the call's argument ops come from the callee summary,
	// already handled by collectOpsIn's call case. `go func(){...}()`:
	// the literal body is part of g.Call.Fun and walked the same way.
}

// collectOpsOutside gathers ops over the body excluding the given go
// statement (other goroutines included: a consumer launched elsewhere is a
// legitimate counterpart).
func collectOpsOutside(pass *analysis.Pass, sums summary.Summaries, body *ast.BlockStmt, skip *ast.GoStmt, chans map[*types.Var]*localChan, out map[*types.Var]*chanOps) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == skip {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok {
			// Walk other goroutines' contents as counterparts.
			return true
		}
		recordOp(pass, sums, n, chans, out, 0)
		return true
	})
}

// collectOpsIn walks one subtree recording ops, tracking select guarding
// depth: selectDepth > 0 means the op sits under a select with an escape
// hatch.
func collectOpsIn(pass *analysis.Pass, sums summary.Summaries, root ast.Node, chans map[*types.Var]*localChan, out map[*types.Var]*chanOps, selectDepth int) {
	ast.Inspect(root, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			hatch := selectHasDefault(sel)
			comms := 0
			for _, st := range sel.Body.List {
				if c, ok := st.(*ast.CommClause); ok && c.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				hatch = true
			}
			depth := selectDepth
			if hatch {
				depth++
			}
			for _, st := range sel.Body.List {
				collectOpsIn(pass, sums, st, chans, out, depth)
			}
			return false
		}
		recordOp(pass, sums, n, chans, out, selectDepth)
		return true
	})
}

// recordOp records a single node's channel operation, if any.
func recordOp(pass *analysis.Pass, sums summary.Summaries, n ast.Node, chans map[*types.Var]*localChan, out map[*types.Var]*chanOps, selectDepth int) {
	info := pass.TypesInfo
	get := func(v *types.Var) *chanOps {
		if v == nil || chans[v] == nil {
			return nil
		}
		ops := out[v]
		if ops == nil {
			ops = &chanOps{guarded: true}
			out[v] = ops
		}
		return ops
	}
	mark := func(v *types.Var, pos token.Pos, f func(*chanOps)) {
		ops := get(v)
		if ops == nil {
			return
		}
		f(ops)
		ops.pos = pos
		if selectDepth == 0 {
			ops.guarded = false
		}
	}
	switch n := n.(type) {
	case *ast.SendStmt:
		mark(localVar(info, n.Chan), n.Arrow, func(o *chanOps) { o.send = true })
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			mark(localVar(info, n.X), n.OpPos, func(o *chanOps) { o.recv = true })
		}
	case *ast.RangeStmt:
		if isChannelType(info.Types[n.X].Type) {
			mark(localVar(info, n.X), n.Range, func(o *chanOps) { o.recv = true })
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				if b.Name() == "close" && len(n.Args) == 1 {
					mark(localVar(info, n.Args[0]), n.Pos(), func(o *chanOps) { o.close = true })
				}
				return
			}
		}
		for ai, arg := range n.Args {
			v := localVar(info, arg)
			if v == nil || chans[v] == nil {
				continue
			}
			ops, known := calleeParamOps(pass, sums, n, ai)
			if !known {
				continue // escape analysis already dropped the channel
			}
			mark(v, n.Pos(), func(o *chanOps) {
				o.send = o.send || ops.Has(summary.OpSend)
				o.recv = o.recv || ops.Has(summary.OpRecv)
				o.close = o.close || ops.Has(summary.OpClose)
			})
		}
	}
}
