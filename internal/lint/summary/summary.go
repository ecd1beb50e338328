// Package summary computes per-function interprocedural summaries for the
// medalint analyzers, in the classic bottom-up style: the package call
// graph (internal/lint/callgraph) is condensed into strongly connected
// components, the components are processed callees-first, and each
// component iterates to a fixpoint, so direct and mutual recursion converge
// instead of recursing. Calls that leave the package resolve through
// analysis Facts: the driver analyzes packages in dependency order sharing
// one fact store, so by the time a downstream package is summarized, every
// upstream function already carries its facts — summaries flow between
// packages exactly like lockheld's MayBlock facts.
//
// Two summaries are computed, each for one analyzer:
//
//   - FnSummary (goroutineleak): per-parameter channel-protocol bits — does
//     f send on, receive from, or close a channel passed as parameter i,
//     and does parameter i escape (stored, returned, captured, or passed
//     to an unknown callee).
//   - AllocFacts (hotalloc, allocs.go): the heap allocation sources a call
//     into f can reach, each with a witness call chain for diagnostics.
//
// Soundness posture: static calls always contribute to the caller's
// summary. Interface calls contribute the union of their CHA candidates,
// but only while the candidate set is narrow (at most maxCHATargets) — the
// domain interfaces the analyzers care about (Router, FaultModel,
// ForceField) have one to three implementations, while wide stdlib
// interfaces like io.Writer would drown every summary in false reachability.
// Wide interface calls and calls through function values are treated as
// opaque: they contribute nothing, which keeps the analyzers quiet rather
// than wrong-by-noise. Channel-typed arguments passed to an opaque call
// mark the parameter as escaping, so the leak analyzer knows it lost
// track of it.
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"meda/internal/lint/analysis"
	"meda/internal/lint/callgraph"
)

// maxCHATargets bounds how wide an interface dispatch may be before the
// call is treated as opaque rather than unioned into the summary.
const maxCHATargets = 3

// ParamOps is the channel-protocol bitmask of one parameter.
type ParamOps uint8

const (
	// OpSend: the function may send on the channel parameter.
	OpSend ParamOps = 1 << iota
	// OpRecv: the function may receive from the channel parameter
	// (including range).
	OpRecv
	// OpClose: the function may close the channel parameter.
	OpClose
	// OpEscape: the parameter escapes — stored, returned, captured by a
	// function literal, or passed to a callee the analysis cannot see into.
	OpEscape
)

// Has reports whether all bits of mask are set.
func (p ParamOps) Has(mask ParamOps) bool { return p&mask == mask }

// FnSummary is the exported fact: the channel-protocol summary of one
// package-level function or method.
type FnSummary struct {
	// Params holds one ParamOps per declared parameter (variadic included,
	// receiver excluded).
	Params []ParamOps
}

// AFact marks FnSummary as an analysis fact.
func (*FnSummary) AFact() {}

// fingerprint is the monotone-growth measure the SCC fixpoint compares:
// summaries only ever gain param bits.
func (s *FnSummary) fingerprint() string {
	var sb strings.Builder
	for _, p := range s.Params {
		fmt.Fprintf(&sb, "%d,", p)
	}
	return sb.String()
}

// Summaries maps the analyzed package's functions to their summaries.
type Summaries map[*types.Func]*FnSummary

// Of resolves a summary for any function: a node of the analyzed package,
// or an upstream function through its imported fact. Returns nil when the
// function is unknown (no body analyzed, no fact exported).
func (s Summaries) Of(pass *analysis.Pass, fn *types.Func) *FnSummary {
	if fn == nil {
		return nil
	}
	if sum, ok := s[fn]; ok {
		return sum
	}
	var fact FnSummary
	if pass.ImportObjectFact(fn, &fact) {
		return &fact
	}
	return nil
}

// Compute builds the package call graph, runs the bottom-up fixpoint, and
// exports an FnSummary fact for every function with a non-empty summary so
// downstream packages can resolve calls into this one. The returned map
// also covers functions whose summary is empty.
func Compute(pass *analysis.Pass) Summaries {
	g := callgraph.Build(pass.Pkg, pass.TypesInfo, pass.Files)
	sums := make(Summaries, len(g.Nodes))
	for _, scc := range g.SCCs() {
		// Iterate the component to a fixpoint. Singleton components without
		// self-loops stabilize in one pass; recursive components grow their
		// summaries monotonically until nothing changes.
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				old := ""
				if prev, ok := sums[n.Fn]; ok {
					old = prev.fingerprint()
				}
				next := summarize(pass, sums, n)
				if next.fingerprint() != old {
					changed = true
				}
				sums[n.Fn] = next
			}
		}
	}
	for fn, sum := range sums {
		if anyOps(sum.Params) {
			pass.ExportObjectFact(fn, sum)
		}
	}
	return sums
}

func anyOps(params []ParamOps) bool {
	for _, p := range params {
		if p != 0 {
			return true
		}
	}
	return false
}

// summarize computes one function's summary from its body and the current
// summaries of its callees.
func summarize(pass *analysis.Pass, sums Summaries, n *callgraph.Node) *FnSummary {
	info := pass.TypesInfo
	sum := &FnSummary{}
	params := paramVars(info, n.Decl)
	sum.Params = make([]ParamOps, len(params))
	paramIndex := make(map[*types.Var]int, len(params))
	for i, v := range params {
		paramIndex[v] = i
	}

	// Direct, body-level facts: channel ops and parameter usage. Calls are
	// folded in afterwards from the call graph's resolved sites.
	scanBody(pass, n.Decl.Body, paramIndex, sum)

	// Callee contributions.
	for _, call := range n.Calls {
		targets := call.Targets
		if call.Kind == callgraph.Interface && len(targets) > maxCHATargets {
			targets = nil // wide dispatch: opaque
		}
		for _, callee := range targets {
			cs := sums.Of(pass, callee)
			if cs == nil {
				continue
			}
			// Map callee param ops back onto our own parameters when a
			// parameter is passed straight through as an argument.
			for ai, arg := range call.Site.Args {
				v := identVar(info, arg)
				pi, isParam := paramIndex[v]
				if !isParam {
					continue
				}
				ci := ai
				if ci >= len(cs.Params) {
					if len(cs.Params) == 0 {
						continue
					}
					ci = len(cs.Params) - 1 // variadic tail
				}
				sum.Params[pi] |= cs.Params[ci] & (OpSend | OpRecv | OpClose | OpEscape)
			}
		}
		// Opaque calls (dynamic, wide interface, or no summary): any
		// parameter passed in escapes our tracking.
		if len(targets) == 0 {
			for _, arg := range call.Site.Args {
				if pi, ok := paramIndex[identVar(info, arg)]; ok {
					sum.Params[pi] |= OpEscape
				}
			}
		} else {
			// A resolved callee without a summary (stdlib, no fact) is
			// opaque too.
			resolvedAny := false
			for _, callee := range targets {
				if sums.Of(pass, callee) != nil {
					resolvedAny = true
					break
				}
			}
			if !resolvedAny {
				for _, arg := range call.Site.Args {
					if pi, ok := paramIndex[identVar(info, arg)]; ok {
						sum.Params[pi] |= OpEscape
					}
				}
			}
		}
	}
	return sum
}

// paramVars returns the declared parameter variables of a declaration, in
// order (receiver excluded).
func paramVars(info *types.Info, decl *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	if decl.Type.Params == nil {
		return out
	}
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// identVar resolves an expression to the variable it reads, or nil.
func identVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// scanBody records the body-level facts of one function: direct parameter
// ops and escapes. A parameter referenced inside a function literal, go
// statement, or defer escapes: the closure may do anything with it later.
func scanBody(pass *analysis.Pass, body *ast.BlockStmt, paramIndex map[*types.Var]int, sum *FnSummary) {
	info := pass.TypesInfo
	paramOf := func(e ast.Expr) (int, bool) {
		i, ok := paramIndex[identVar(info, e)]
		return i, ok
	}

	var walk func(n ast.Node, offFlow bool)
	walk = func(n ast.Node, offFlow bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				walk(m.Body, true)
				return false
			case *ast.GoStmt:
				walk(m.Call, true)
				return false
			case *ast.DeferStmt:
				walk(m.Call, true)
				return false
			case *ast.SendStmt:
				if i, ok := paramOf(m.Chan); ok {
					sum.Params[i] |= OpSend
				}
				if i, ok := paramOf(m.Value); ok {
					sum.Params[i] |= OpEscape // the value leaves through the channel
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					if i, ok := paramOf(m.X); ok {
						sum.Params[i] |= OpRecv
					}
				}
				if m.Op == token.AND {
					if i, ok := paramOf(m.X); ok {
						sum.Params[i] |= OpEscape
					}
				}
			case *ast.RangeStmt:
				if isChan(info.Types[m.X].Type) {
					if i, ok := paramOf(m.X); ok {
						sum.Params[i] |= OpRecv
					}
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
					if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(m.Args) == 1 {
						if i, ok := paramOf(m.Args[0]); ok {
							sum.Params[i] |= OpClose
						}
					}
				}
			case *ast.AssignStmt:
				// A parameter assigned to anything that is not a plain
				// local escapes (field, index, global, dereference).
				for i, rhs := range m.Rhs {
					pi, ok := paramOf(rhs)
					if !ok {
						continue
					}
					if i < len(m.Lhs) && !isLocalLHS(info, m.Lhs[i]) {
						sum.Params[pi] |= OpEscape
					}
				}
			case *ast.ReturnStmt:
				for _, r := range m.Results {
					if i, ok := paramOf(r); ok {
						sum.Params[i] |= OpEscape
					}
				}
			case *ast.CompositeLit:
				for _, el := range m.Elts {
					e := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					if i, ok := paramOf(e); ok {
						sum.Params[i] |= OpEscape
					}
				}
			case *ast.Ident:
				if offFlow {
					if i, ok := paramIndex[identVar(info, m)]; ok {
						sum.Params[i] |= OpEscape
					}
				}
			}
			return true
		})
	}
	walk(body, false)
}

// isLocalLHS reports whether an assignment target is a plain local
// variable — anything else (selector, index, dereference, global) lets the
// assigned value escape the function.
func isLocalLHS(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return id.Name == "_"
	}
	return v.Pkg() != nil && v.Parent() != v.Pkg().Scope()
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
