// PRISM explicit-format export. The paper solved its per-job MDPs with
// PRISM-games; this repository ships its own solver, and these writers emit
// any model in PRISM's explicit import format (.tra/.lab) so results can be
// cross-validated against PRISM with
//
//	prism -importtrans model.tra -importlabels model.lab -mdp \
//	      -pctl 'Rmin=? [ F "goal" ]'
//
// (transition rewards are folded into a .trew file by WriteTrew).
package mdp

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// WriteTra writes the transition function in PRISM's explicit .tra format
// for MDPs: a header "states choices transitions" followed by one line per
// transition: "state choiceIndex target probability action".
func (m *MDP) WriteTra(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.NumStates(), m.NumChoices(), m.NumTransitions()); err != nil {
		return err
	}
	g := m.g
	for s := 0; s < g.n; s++ {
		for ci := g.stateOff[s]; ci < g.stateOff[s+1]; ci++ {
			for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
				if _, err := fmt.Fprintf(bw, "%d %d %d %g a%d\n",
					s, ci-g.stateOff[s], g.tos[ti], g.probs[ti], g.actions[ci]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// WriteTrew writes per-choice transition rewards in PRISM's explicit .trew
// format: a header "states choices transitions" followed by one line per
// transition carrying the choice's reward.
func (m *MDP) WriteTrew(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.NumStates(), m.NumChoices(), m.NumTransitions()); err != nil {
		return err
	}
	g := m.g
	for s := 0; s < g.n; s++ {
		for ci := g.stateOff[s]; ci < g.stateOff[s+1]; ci++ {
			for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
				if _, err := fmt.Fprintf(bw, "%d %d %d %g\n",
					s, ci-g.stateOff[s], g.tos[ti], g.rewards[ci]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// WriteLab writes state labels in PRISM's explicit .lab format: a header
// enumerating label names ("init" is conventionally label 0), then one line
// per labeled state: "state: labelIndex...". The labels map associates each
// name with its membership vector; init marks the initial state.
func (m *MDP) WriteLab(w io.Writer, init StateID, labels map[string][]bool) error {
	n := m.NumStates()
	names := make([]string, 0, len(labels))
	for name, vec := range labels {
		if len(vec) != n {
			return fmt.Errorf("mdp: label %q has %d entries for %d states", name, len(vec), n)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `0="init"`)
	for i, name := range names {
		fmt.Fprintf(bw, ` %d=%q`, i+1, name)
	}
	fmt.Fprintln(bw)
	for s := 0; s < n; s++ {
		var idxs []int
		if StateID(s) == init {
			idxs = append(idxs, 0)
		}
		for i, name := range names {
			if labels[name][s] {
				idxs = append(idxs, i+1)
			}
		}
		if len(idxs) == 0 {
			continue
		}
		fmt.Fprintf(bw, "%d:", s)
		for _, i := range idxs {
			fmt.Fprintf(bw, " %d", i)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
