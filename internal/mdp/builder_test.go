package mdp

import (
	"math"
	"reflect"
	"testing"
)

// pack builds the model whose state s has the choices cs[s], in order,
// through a Builder, as smg.Arena builds routing models.
func pack(cs [][]Choice) *MDP {
	var b Builder
	b.Reset()
	b.AddStates(len(cs))
	for s, choices := range cs {
		for _, c := range choices {
			b.BeginChoice(StateID(s), c.Action, c.Reward)
			for _, tr := range c.Transitions {
				b.Transition(tr.To, tr.P)
			}
		}
	}
	return b.Build()
}

// builderModel builds a three-state model on b, choice by choice.
func builderModel(b *Builder) *MDP {
	b.Reset()
	b.AddStates(3)
	b.BeginChoice(0, 7, 1)
	b.Transition(1, 0.5)
	b.Transition(0, 0.5)
	b.BeginChoice(0, 8, 2)
	b.Transition(2, 1)
	b.BeginChoice(1, 9, 1)
	b.Transition(2, 1)
	b.BeginChoice(2, -1, 0)
	b.Transition(2, 1)
	return b.Build()
}

// TestPackRoundTrip: Choices materializes exactly the choices a model was
// built with, and the size counters agree with them.
func TestPackRoundTrip(t *testing.T) {
	cs := [][]Choice{
		{{Action: 7, Reward: 1, Transitions: []Transition{{To: 1, P: 0.5}, {To: 0, P: 0.5}}},
			{Action: 8, Reward: 2, Transitions: []Transition{{To: 2, P: 1}}}},
		nil,
		{{Action: -1, Transitions: []Transition{{To: 2, P: 1}}}},
	}
	m := pack(cs)
	if m.NumStates() != 3 || m.NumChoices() != 3 || m.NumTransitions() != 4 {
		t.Fatalf("sizes %d/%d/%d, want 3/3/4", m.NumStates(), m.NumChoices(), m.NumTransitions())
	}
	for s := range cs {
		if got := m.Choices(StateID(s)); !reflect.DeepEqual(got, cs[s]) {
			t.Errorf("state %d: choices %+v, built with %+v", s, got, cs[s])
		}
	}
}

// TestBuilderResetRecycles rebuilds through the same Builder and checks the
// second build is correct and allocation-free once the slabs are warm.
func TestBuilderResetRecycles(t *testing.T) {
	var b Builder
	builderModel(&b)
	allocs := testing.AllocsPerRun(10, func() {
		m := builderModel(&b)
		if m.NumStates() != 3 {
			t.Fatal("rebuild lost states")
		}
	})
	// One allocation per build is the *MDP header itself.
	if allocs > 2 {
		t.Fatalf("warm rebuild allocates %v times per run; want ≤ 2", allocs)
	}
	// Solving after a rebuild must still work (scratch slabs recycled too).
	m := builderModel(&b)
	r, err := m.MinExpectedReward([]bool{false, false, true}, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(r.Values[0], 1) {
		t.Fatal("value at state 0 must be finite")
	}
}

func TestBuilderPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	var b Builder
	b.Reset()
	b.AddStates(2)
	b.BeginChoice(1, 0, 0)
	b.Transition(0, 1)
	expectPanic("out-of-order state", func() { b.BeginChoice(0, 0, 0) })

	var b2 Builder
	b2.Reset()
	b2.AddStates(1)
	b2.BeginChoice(0, 0, 0)
	b2.Transition(0, 1)
	b2.Build()
	expectPanic("double build", func() { b2.Build() })
	expectPanic("choice after build", func() { b2.BeginChoice(0, 0, 0) })

	var b3 Builder
	b3.Reset()
	expectPanic("unreserved state", func() { b3.BeginChoice(5, 0, 0) })
}
