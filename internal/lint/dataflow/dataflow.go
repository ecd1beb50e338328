// Package dataflow is a generic fixpoint solver over the control-flow
// graphs of package cfg. An analysis supplies a join-semilattice of facts
// (Lattice), a per-block transfer function, and — for branch-sensitive
// forward problems — an optional edge refinement that sharpens the fact
// flowing to a specific successor (e.g. "ok is true on the then edge").
// The solver iterates a worklist seeded in reverse postorder until the
// facts stabilize, and returns the fact at the entry (In) and exit (Out)
// of every block.
//
// Transfer and edge functions must be pure with respect to their inputs:
// they receive a fact and return a (possibly new) fact, never mutating the
// argument in place, because the solver joins the same fact into several
// successors.
package dataflow

import "meda/internal/lint/cfg"

// Lattice defines the fact domain of one analysis: a bottom element, a
// commutative/associative/idempotent join, and equality (the fixpoint
// termination test). Facts must form a finite-height lattice for the
// solver to terminate.
type Lattice[T any] interface {
	Bottom() T
	Join(a, b T) T
	Equal(a, b T) bool
}

// TransferFunc computes the fact at the exit of a block from the fact at
// its entry.
type TransferFunc[T any] func(b *cfg.Block, fact T) T

// EdgeFunc refines the fact flowing from a block to its i-th successor.
// Forward branch-sensitive analyses use it to apply what the branch
// condition implies on each edge (cfg.Block.Cond: successor 0 is the true
// edge, successor 1 the false edge).
type EdgeFunc[T any] func(b *cfg.Block, succ int, out T) T

// Result carries the solved facts: In[b] holds at the start of b, Out[b]
// after its last node.
type Result[T any] struct {
	In  map[*cfg.Block]T
	Out map[*cfg.Block]T
}

// Forward solves a forward dataflow problem: boundary is the fact at the
// CFG entry, transfer maps a block's in-fact to its out-fact, and edge
// (optional, may be nil) refines the out-fact per successor edge.
func Forward[T any](g *cfg.CFG, lat Lattice[T], boundary T, transfer TransferFunc[T], edge EdgeFunc[T]) Result[T] {
	res := Result[T]{In: make(map[*cfg.Block]T, len(g.Blocks)), Out: make(map[*cfg.Block]T, len(g.Blocks))}
	for _, b := range g.Blocks {
		res.In[b] = lat.Bottom()
		res.Out[b] = lat.Bottom()
	}
	res.In[g.Entry] = boundary

	order := g.ReversePostorder()
	prio := make(map[*cfg.Block]int, len(order))
	for i, b := range order {
		prio[b] = i
	}
	wl := newWorklist(order, prio)
	for {
		b, ok := wl.pop()
		if !ok {
			return res
		}
		out := transfer(b, res.In[b])
		res.Out[b] = out
		for i, s := range b.Succs {
			v := out
			if edge != nil {
				v = edge(b, i, out)
			}
			joined := lat.Join(res.In[s], v)
			if !lat.Equal(joined, res.In[s]) {
				res.In[s] = joined
				wl.push(s)
			}
		}
	}
}

// worklist is a priority queue of blocks keyed by a fixed iteration order,
// deduplicating pending entries; initial seeding visits every block once.
type worklist struct {
	prio    map[*cfg.Block]int
	pending map[*cfg.Block]bool
	queue   []*cfg.Block
}

func newWorklist(seed []*cfg.Block, prio map[*cfg.Block]int) *worklist {
	wl := &worklist{prio: prio, pending: make(map[*cfg.Block]bool, len(seed))}
	for _, b := range seed {
		wl.push(b)
	}
	return wl
}

func (wl *worklist) push(b *cfg.Block) {
	if wl.pending[b] {
		return
	}
	wl.pending[b] = true
	wl.queue = append(wl.queue, b)
}

func (wl *worklist) pop() (*cfg.Block, bool) {
	if len(wl.queue) == 0 {
		return nil, false
	}
	// Pick the pending block earliest in the iteration order: cheap linear
	// scan — CFGs of single functions are small.
	best := 0
	for i := 1; i < len(wl.queue); i++ {
		if wl.prio[wl.queue[i]] < wl.prio[wl.queue[best]] {
			best = i
		}
	}
	b := wl.queue[best]
	wl.queue[best] = wl.queue[len(wl.queue)-1]
	wl.queue = wl.queue[:len(wl.queue)-1]
	wl.pending[b] = false
	return b, true
}

// VarSet is the workhorse fact domain of the medalint analyzers: a set of
// keys (variables, lock names) each carrying a position-like payload, under
// union join. The zero map is bottom; all operations are copy-on-write so
// transfer functions can share inputs safely.
type VarSet[K comparable, V any] map[K]V

// VarSetLattice is the union-join lattice over VarSet. On conflicting
// payloads the earlier insertion wins (payloads are provenance — a def
// site — not analysis state, so any representative is acceptable).
type VarSetLattice[K comparable, V any] struct{}

// Bottom implements Lattice.
func (VarSetLattice[K, V]) Bottom() VarSet[K, V] { return nil }

// Join implements Lattice by set union.
func (VarSetLattice[K, V]) Join(a, b VarSet[K, V]) VarSet[K, V] {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make(VarSet[K, V], len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// Equal implements Lattice; payloads are provenance and do not affect
// equality — only the key sets are compared.
func (VarSetLattice[K, V]) Equal(a, b VarSet[K, V]) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// With returns a copy of s with k set to v.
func (s VarSet[K, V]) With(k K, v V) VarSet[K, V] {
	out := make(VarSet[K, V], len(s)+1)
	for k2, v2 := range s {
		out[k2] = v2
	}
	out[k] = v
	return out
}

// Without returns s with k removed (s itself when k is absent).
func (s VarSet[K, V]) Without(k K) VarSet[K, V] {
	if _, ok := s[k]; !ok {
		return s
	}
	out := make(VarSet[K, V], len(s))
	for k2, v2 := range s {
		if k2 != k {
			out[k2] = v2
		}
	}
	return out
}
