package mdp

// CSRView is a read-only window onto the CSR slabs of the model, including
// the solver index, for external invariant checking (internal/modelcheck).
// It exposes the solver's own slabs, so the slices must not be modified.
type CSRView struct {
	// NumStates is |S|; offsets below are as documented on the internal
	// csr type: choices of state s are [StateOff[s], StateOff[s+1]),
	// transitions of choice c are [ChoiceOff[c], ChoiceOff[c+1]).
	NumStates int
	StateOff  []int32
	ChoiceOff []int32
	Actions   []int32   // per choice: caller-supplied action id
	Rewards   []float64 // per choice
	Tos       []int32   // per transition: successor state
	Probs     []float64 // per transition

	// Reverse-edge index over positive-probability transitions: the global
	// choice ids with an edge into state t are RevChoice[RevOff[t]:
	// RevOff[t+1]], and ChoiceState maps a global choice id to its owning
	// state. This is the exact index Prob1E and strategy extraction walk,
	// so checking it validates the solver's substrate, not a re-derivation.
	RevOff      []int32
	RevChoice   []int32
	ChoiceState []int32

	// Predecessor lists: Preds[PredOff[t]:PredOff[t+1]] are the states
	// other than t, ascending and once each, that own a choice with a
	// positive-probability edge into t — the exact lists change-driven
	// Gauss-Seidel re-dirties when t's value changes.
	PredOff []int32
	Preds   []int32

	// The deterministic/other partition the Bellman backups walk: of the
	// slots [StateOff[s], StateOff[s+1]) of Part, [StateOff[s], DetOff[s])
	// are the global ids of the state's other choices, and
	// [DetOff[s], StateOff[s+1]) the successors of the choices gathered
	// into one min (max) over successor values, all with reward
	// DetReward[s], in reverse choice order.
	DetOff    []int32
	DetReward []float64
	Part      []int32
}

// CSR builds the solver index, exactly as the solvers do, and exposes it
// with the model's slabs. Transition targets must be in range
// (Validate), or the index construction will panic; callers checking
// untrusted models should run Validate first.
func (m *MDP) CSR() CSRView {
	g := m.g
	g.index()
	return CSRView{
		NumStates:   g.n,
		StateOff:    g.stateOff,
		ChoiceOff:   g.choiceOff,
		Actions:     g.actions,
		Rewards:     g.rewards,
		Tos:         g.tos,
		Probs:       g.probs,
		RevOff:      g.revOff,
		RevChoice:   g.revChoice,
		ChoiceState: g.choiceState,
		PredOff:     g.predOff,
		Preds:       g.preds,
		DetOff:      g.detOff,
		DetReward:   g.detReward,
		Part:        g.part,
	}
}
