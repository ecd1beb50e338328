// Offline strategy-library persistence. The hybrid scheduler of Alg. 3
// assumes "a library of pre-synthesized strategies is first created
// offline"; Save and Load make that literal: a library built on one run (or
// by a dedicated pre-synthesis pass) can be serialized and shipped with the
// biochip controller.
package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/policy"
	"meda/internal/route"
	"meda/internal/synth"
)

// libraryFile is the on-disk JSON schema.
type libraryFile struct {
	Version int            `json:"version"`
	Entries []libraryEntry `json:"entries"`
}

type libraryEntry struct {
	Start  [4]int        `json:"start"`
	Goal   [4]int        `json:"goal"`
	Hazard [4]int        `json:"hazard"`
	Value  float64       `json:"value"`
	Policy []policyEntry `json:"policy"`
}

type policyEntry struct {
	Droplet [4]int `json:"d"`
	Action  uint8  `json:"a"`
}

func rectToArr(r geom.Rect) [4]int { return [4]int{r.XA, r.YA, r.XB, r.YB} }
func arrToRect(a [4]int) geom.Rect { return geom.Rect{XA: a[0], YA: a[1], XB: a[2], YB: a[3]} }

// Save serializes the library as JSON. Entries are written in a stable
// order so the output is reproducible.
func (l *Library) Save(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	file := libraryFile{Version: 1}
	keys := make([]libKey, 0, len(l.entries))
	for k := range l.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.hazard != b.hazard {
			return a.hazard.Less(b.hazard)
		}
		if a.start != b.start {
			return a.start.Less(b.start)
		}
		return a.goal.Less(b.goal)
	})
	for _, k := range keys {
		e := l.entries[k]
		entry := libraryEntry{
			Start:  rectToArr(k.start),
			Goal:   rectToArr(k.goal),
			Hazard: rectToArr(k.hazard),
			Value:  e.value,
		}
		// Stable policy order: by droplet rectangle.
		e.policy.Walk(func(d geom.Rect, a action.Action) {
			entry.Policy = append(entry.Policy, policyEntry{Droplet: rectToArr(d), Action: uint8(a)})
		})
		sort.Slice(entry.Policy, func(i, j int) bool {
			return arrToRect(entry.Policy[i].Droplet).Less(arrToRect(entry.Policy[j].Droplet))
		})
		file.Entries = append(file.Entries, entry)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// Load reads a library saved with Save, merging its entries into l. Each
// entry is re-canonicalized on the way in, so files written before the
// library became D4-canonical (or hand-authored in chip coordinates) land
// on the same keys as freshly stored strategies; files that are already
// canonical round-trip unchanged because Canonicalize is idempotent.
func (l *Library) Load(r io.Reader) error {
	var file libraryFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return fmt.Errorf("sched: loading strategy library: %w", err)
	}
	if file.Version != 1 {
		return fmt.Errorf("sched: unsupported library version %d", file.Version)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range file.Entries {
		entries := make([]policy.Entry, len(e.Policy))
		for i, pe := range e.Policy {
			if pe.Action >= action.NumActions {
				return fmt.Errorf("sched: library entry has invalid action %d", pe.Action)
			}
			entries[i] = policy.Entry{D: arrToRect(pe.Droplet), A: action.Action(pe.Action)}
		}
		rj := route.RJ{Start: arrToRect(e.Start), Goal: arrToRect(e.Goal), Hazard: arrToRect(e.Hazard)}
		key, tf := canonical(rj)
		l.entries[key] = libEntry{policy: tf.ApplyPolicy(policy.Of(entries)), value: e.Value}
		l.gen++
	}
	return nil
}

// Presynthesize fills the library with healthy-chip strategies for every
// routing job of a compiled plan (the paper's "range of droplet sizes
// assuming no degradation"). Returns the number of entries added.
func (l *Library) Presynthesize(plan *route.Plan, opt synth.Options) (int, error) {
	healthy := func(x, y int) float64 { return 1 }
	added := 0
	for i := range plan.MOs {
		for _, rj := range plan.MOs[i].Jobs {
			rj = synth.NormalizeDispense(rj, plan.W, plan.H)
			if _, _, ok := l.Lookup(rj); ok {
				continue
			}
			res, err := synth.Synthesize(rj, healthy, opt)
			if err != nil {
				return added, err
			}
			if res.Exists() {
				l.Store(rj, res.Policy, res.Value)
				added++
			}
		}
	}
	return added, nil
}
