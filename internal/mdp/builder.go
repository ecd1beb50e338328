// Arena-style model construction. Builder writes the model straight into
// the CSR slabs the solvers consume: states, choices and transitions are
// appended to flat arrays that are grown in place and, via Reset, recycled
// across builds, so a warmed Builder constructs a model of any previously
// seen size with zero allocations.
//
// The price is a construction discipline: choices must be added in
// non-decreasing state order (the CSR layout keeps a state's choices
// contiguous), and the *MDP returned by Build aliases the Builder's slabs —
// it is valid only until the next Reset.
package mdp

// Builder constructs CSR-backed MDPs with reusable memory. The zero value
// is ready for use after Reset; a Builder must not be used from multiple
// goroutines, and neither may the model it built (the solver scratch slabs
// are shared with the Builder).
type Builder struct {
	g       csr
	nStates int
	built   bool
}

// Reset discards the model under construction (and any model previously
// built) while retaining slab capacity for the next build.
//
//meda:hotpath
func (b *Builder) Reset() {
	b.nStates = 0
	b.built = false
	g := &b.g
	g.n = 0
	g.stateOff = append(g.stateOff[:0], 0)
	g.choiceOff = g.choiceOff[:0]
	g.actions = g.actions[:0]
	g.rewards = g.rewards[:0]
	g.tos = g.tos[:0]
	g.probs = g.probs[:0]
	g.indexed = false
}

// AddStates reserves n fresh states and returns the id of the first.
//
//meda:hotpath
func (b *Builder) AddStates(n int) StateID {
	if len(b.g.stateOff) == 0 {
		b.Reset()
	}
	first := StateID(b.nStates)
	b.nStates += n
	return first
}

// NumStates returns the number of states reserved so far.
//
//meda:hotpath
func (b *Builder) NumStates() int { return b.nStates }

// BeginChoice opens a choice of state s; the following Transition calls
// populate its distribution. Choices must be added in non-decreasing state
// order, and s must already be reserved.
//
//meda:hotpath
func (b *Builder) BeginChoice(s StateID, action int, reward float64) {
	if b.built {
		panic("mdp: Builder.BeginChoice after Build; Reset first")
	}
	si := int(s)
	if si < 0 || si >= b.nStates {
		panic("mdp: Builder.BeginChoice on unreserved state")
	}
	if si < len(b.g.stateOff)-1 {
		panic("mdp: Builder choices must be added in non-decreasing state order")
	}
	ci := int32(len(b.g.actions))
	for len(b.g.stateOff)-1 < si {
		b.g.stateOff = append(b.g.stateOff, ci)
	}
	b.g.choiceOff = append(b.g.choiceOff, int32(len(b.g.tos)))
	b.g.actions = append(b.g.actions, int32(action))
	b.g.rewards = append(b.g.rewards, reward)
}

// Transition appends one probabilistic edge to the currently open choice.
//
//meda:hotpath
func (b *Builder) Transition(to StateID, p float64) {
	if len(b.g.actions) == 0 {
		panic("mdp: Builder.Transition before BeginChoice")
	}
	b.g.tos = append(b.g.tos, int32(to))
	b.g.probs = append(b.g.probs, p)
}

// Build finalizes the CSR offsets and returns the model. The returned *MDP
// aliases the Builder's slabs: it is valid until the next Reset, and must
// not be solved concurrently with itself or with a later build.
func (b *Builder) Build() *MDP {
	g := &b.g
	if len(g.stateOff) == 0 {
		b.Reset()
	}
	if b.built {
		panic("mdp: Builder.Build called twice; Reset first")
	}
	b.built = true
	nc := int32(len(g.actions))
	for len(g.stateOff)-1 < b.nStates {
		g.stateOff = append(g.stateOff, nc)
	}
	g.choiceOff = append(g.choiceOff, int32(len(g.tos)))
	g.n = b.nStates
	return &MDP{g: g}
}
