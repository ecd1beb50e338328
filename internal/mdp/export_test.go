package mdp

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func exportModel() (*MDP, []bool) {
	const s0, s1, goal = 0, 1, 2
	m := pack([][]Choice{
		s0: {
			{Action: 1, Reward: 1, Transitions: []Transition{{To: s1, P: 0.5}, {To: s0, P: 0.5}}},
			{Action: 2, Reward: 1, Transitions: []Transition{{To: goal, P: 0.25}, {To: s0, P: 0.75}}},
		},
		s1:   {{Action: 3, Reward: 1, Transitions: []Transition{{To: goal, P: 1}}}},
		goal: {{Transitions: []Transition{{To: goal, P: 1}}}},
	})
	target := []bool{false, false, true}
	return m, target
}

func TestWriteTraFormat(t *testing.T) {
	m, _ := exportModel()
	var buf bytes.Buffer
	if err := m.WriteTra(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "3 4 6" {
		t.Errorf("header = %q, want \"3 4 6\"", lines[0])
	}
	if len(lines) != 1+6 {
		t.Fatalf("lines = %d, want 7", len(lines))
	}
	// Every body line: state choice target prob action; probabilities of
	// a (state, choice) group sum to 1.
	sums := map[string]float64{}
	for _, l := range lines[1:] {
		f := strings.Fields(l)
		if len(f) != 5 {
			t.Fatalf("bad line %q", l)
		}
		p, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		sums[f[0]+":"+f[1]] += p
		if !strings.HasPrefix(f[4], "a") {
			t.Errorf("action field %q", f[4])
		}
	}
	for k, s := range sums {
		if s < 0.999999 || s > 1.000001 {
			t.Errorf("choice %s probabilities sum to %v", k, s)
		}
	}
}

func TestWriteTrewMatchesShape(t *testing.T) {
	m, _ := exportModel()
	var tra, trew bytes.Buffer
	if err := m.WriteTra(&tra); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteTrew(&trew); err != nil {
		t.Fatal(err)
	}
	traLines := strings.Split(strings.TrimSpace(tra.String()), "\n")
	trewLines := strings.Split(strings.TrimSpace(trew.String()), "\n")
	if len(traLines) != len(trewLines) {
		t.Fatalf("tra %d lines vs trew %d", len(traLines), len(trewLines))
	}
	// Rewards of the three unit-cost choices are 1; the goal self-loop 0.
	sc := bufio.NewScanner(strings.NewReader(trew.String()))
	sc.Scan() // header
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		r, _ := strconv.ParseFloat(f[3], 64)
		if f[0] == "2" && r != 0 {
			t.Errorf("goal self-loop reward = %v", r)
		}
		if f[0] != "2" && r != 1 {
			t.Errorf("action reward = %v", r)
		}
	}
}

func TestWriteLab(t *testing.T) {
	m, target := exportModel()
	hazard := []bool{false, true, false}
	var buf bytes.Buffer
	err := m.WriteLab(&buf, 0, map[string][]bool{"goal": target, "hazard": hazard})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != `0="init" 1="goal" 2="hazard"` {
		t.Errorf("header = %q", lines[0])
	}
	want := map[string]bool{"0: 0": true, "1: 2": true, "2: 1": true}
	for _, l := range lines[1:] {
		if !want[l] {
			t.Errorf("unexpected label line %q", l)
		}
		delete(want, l)
	}
	if len(want) != 0 {
		t.Errorf("missing label lines: %v", want)
	}
}

func TestWriteLabRejectsBadVector(t *testing.T) {
	m, _ := exportModel()
	var buf bytes.Buffer
	if err := m.WriteLab(&buf, 0, map[string][]bool{"goal": {true}}); err == nil {
		t.Error("short label vector accepted")
	}
}

// TestExportedModelSolvesIdentically re-imports the .tra text and re-solves,
// checking the round trip preserves the optimal values.
func TestExportedModelSolvesIdentically(t *testing.T) {
	m, target := exportModel()
	want, err := m.MinExpectedReward(target, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.WriteTra(&buf); err != nil {
		t.Fatal(err)
	}
	// Parse the body back into a fresh MDP (rewards: 1 per non-goal
	// choice, matching the original).
	type key struct{ s, c int }
	groups := map[key][]Transition{}
	acts := map[key]int{}
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	sc.Scan()
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		s, _ := strconv.Atoi(f[0])
		c, _ := strconv.Atoi(f[1])
		to, _ := strconv.Atoi(f[2])
		p, _ := strconv.ParseFloat(f[3], 64)
		a, _ := strconv.Atoi(strings.TrimPrefix(f[4], "a"))
		groups[key{s, c}] = append(groups[key{s, c}], Transition{To: StateID(to), P: p})
		acts[key{s, c}] = a
	}
	// Insert in deterministic order.
	cs := make([][]Choice, m.NumStates())
	for s := 0; s < m.NumStates(); s++ {
		for c := 0; c < 4; c++ {
			k := key{s, c}
			trs, ok := groups[k]
			if !ok {
				continue
			}
			reward := 1.0
			if target[s] {
				reward = 0
			}
			cs[s] = append(cs[s], Choice{Action: acts[k], Reward: reward, Transitions: trs})
		}
	}
	got, err := pack(cs).MinExpectedReward(target, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for s := range want.Values {
		if d := want.Values[s] - got.Values[s]; d > 1e-9 || d < -1e-9 {
			t.Errorf("state %d: %v vs %v", s, want.Values[s], got.Values[s])
		}
	}
}
