// Package synth implements the routing-strategy synthesis procedure of
// Alg. 2: given a routing job and the current health matrix, it constructs
// the induced MDP (Sec. VI-C), forms the synthesis query, runs the
// probabilistic model checker, and extracts the droplet routing strategy
// π: Δ → A together with the query value (expected cycles for Rmin, success
// probability for Pmax). It also reports the model-size and timing
// statistics of Table V.
package synth

import (
	"fmt"
	"math"
	"sync"
	"time"

	"meda/internal/action"
	"meda/internal/mdp"
	"meda/internal/policy"
	"meda/internal/route"
	"meda/internal/smg"
	"meda/internal/spec"
	"meda/internal/telemetry"
)

// Options configures a synthesis run.
type Options struct {
	// Query is the synthesis query; the default is the paper's
	// reward-based routing query Rmin=? [ G !hazard & F goal ].
	Query spec.Query
	// Model configures the induced MDP (action alphabet, morphing, cost).
	Model smg.ModelOptions
	// Solver tunes value iteration.
	Solver mdp.SolveOptions
	// RetainModel keeps the induced model on Result.Model for inspection.
	// When false (the default), Result.Model is nil and the model's memory
	// is recycled through a pooled smg.Arena, cutting per-synthesis
	// allocations by orders of magnitude — the reason repeated synthesis
	// is cheap. Set it when the caller needs the model itself (invariant
	// checking, certification, export).
	RetainModel bool
}

// DefaultOptions returns the paper's synthesis configuration.
func DefaultOptions() Options {
	return Options{
		Query: spec.RoutingQuery(spec.RMin),
		Model: smg.DefaultModelOptions(),
	}
}

// Stats are the per-synthesis metrics reported in Table V.
type Stats struct {
	States      int
	Transitions int
	Choices     int
	// Construction is the time to build the model; Synthesis is the time
	// to check the query and extract the strategy; Total is their sum.
	Construction time.Duration
	Synthesis    time.Duration
	// Iterations is the number of value-iteration sweeps run (see
	// mdp.Result.Iterations).
	Iterations int
}

// Total returns construction + synthesis time.
func (s Stats) Total() time.Duration { return s.Construction + s.Synthesis }

// Policy is a synthesized droplet routing strategy: the microfluidic action
// to issue for each droplet rectangle, packed into one action grid per
// droplet shape (package policy).
type Policy = policy.Policy

// Result is the outcome of Alg. 2.
type Result struct {
	// Policy is π, covering no rectangle when no strategy exists.
	Policy Policy
	// Value is the query value at the job's start state: the expected
	// number of cycles k for Rmin queries (+Inf when no strategy exists),
	// or the maximum success probability for Pmax queries.
	Value float64
	// Stats carries Table V metrics.
	Stats Stats
	// Model retains the induced model for inspection; nil unless
	// Options.RetainModel was set (the model's memory is pooled otherwise).
	Model *smg.Model
}

// Exists reports whether a usable strategy was synthesized.
func (r Result) Exists() bool { return r.Policy.Len() > 0 && !math.IsInf(r.Value, 1) }

// diffResults describes the first difference between two results in what
// the unit path must reproduce bit for bit — Value, the Stats sizes,
// Iterations and Policy — or returns "" when there is none.
func diffResults(got, want Result) string {
	switch {
	case math.Float64bits(got.Value) != math.Float64bits(want.Value):
		return fmt.Sprintf("value %v, want %v", got.Value, want.Value)
	case got.Stats.States != want.Stats.States || got.Stats.Transitions != want.Stats.Transitions ||
		got.Stats.Choices != want.Stats.Choices || got.Stats.Iterations != want.Stats.Iterations:
		return fmt.Sprintf("stats %d/%d/%d/%d, want %d/%d/%d/%d (states/transitions/choices/iterations)",
			got.Stats.States, got.Stats.Transitions, got.Stats.Choices, got.Stats.Iterations,
			want.Stats.States, want.Stats.Transitions, want.Stats.Choices, want.Stats.Iterations)
	}
	return got.Policy.Diff(want.Policy)
}

// arenas recycles model-construction memory across syntheses. Each
// Synthesize call checks an arena out for its full duration (the induced
// model aliases the arena's slabs), so concurrent syntheses — e.g. jobs
// routed at once by the concurrent executor — each get their own arena; a warmed arena rebuilds a
// previously seen model size with O(1) allocations.
var arenas = sync.Pool{New: func() any { return new(smg.Arena) }}

// Synthesize runs Alg. 2 for one routing job under the given force field
// (derived from the current health matrix H). Dispense jobs must be
// normalized first (route.RJ.Start set on-chip); see NormalizeDispense.
func Synthesize(rj route.RJ, field action.ForceField, opt Options) (Result, error) {
	if rj.Start.IsZero() {
		return Result{}, fmt.Errorf("synth: %s has an off-chip start; normalize dispense jobs first", rj.Name())
	}
	sp := telemetry.StartSpan("synth.synthesize")
	defer sp.End()
	telSyntheses.Inc()

	ar := arenas.Get().(*smg.Arena)
	telArenaGets.Inc()
	if ar.Builds() > 0 {
		telArenaReuses.Inc()
	}
	if !opt.RetainModel {
		// The model dies with this call; its arena goes back to the pool.
		// (A retained model keeps its arena, which is simply not recycled.)
		defer arenas.Put(ar)
	}
	defer func() {
		telArenaReuseRatio.Set(float64(telArenaReuses.Value()) / float64(telArenaGets.Value()))
	}()

	if unitQuery(opt) && smg.UnitWindow(rj.Hazard, field, opt.Model) {
		res, ok, err := synthesizeUnit(ar, sp, rj, opt)
		if err != nil {
			return Result{}, fmt.Errorf("synth: %s: %w", rj.Name(), err)
		}
		if ok {
			telUnit.Inc()
			assertUnit(rj, field, opt, res)
			return res, nil
		}
	}
	return synthesize(ar, sp, rj, field, opt)
}

// unitQuery reports whether opt asks for what the unit path computes: the
// routing Rmin query, without the model retained.
func unitQuery(opt Options) bool {
	q := opt.Query
	return q.Kind == spec.RMin && q.Reach == "goal" && q.Avoid == "hazard" && !opt.RetainModel
}

// synthesizeUnit solves a job whose window is all-healthy (smg.UnitWindow)
// without an MDP: the successor table of smg.Arena.InduceUnit, one BFS,
// and MinExpectedReward's extraction rule give the full path's Policy,
// Value, Stats sizes and Iterations bit for bit. It reports false, and the
// caller takes the full path, where value iteration would not be seeded
// with the distances (mdp.SolveOptions.SeedsDistances) and so might end
// elsewhere.
func synthesizeUnit(ar *smg.Arena, sp *telemetry.Span, rj route.RJ, opt Options) (Result, bool, error) {
	var res Result
	t0 := time.Now()
	spb := sp.Child("synth.model_build")
	u, err := ar.InduceUnit(rj.Hazard, rj.Start, rj.Goal, opt.Model)
	spb.End()
	if err != nil {
		return Result{}, false, err
	}
	res.Stats.Construction = time.Since(t0)

	t1 := time.Now()
	sps := sp.Child("synth.solve")
	dmax := u.Solve()
	sps.End()
	if !opt.Solver.SeedsDistances(dmax) {
		return Result{}, false, nil
	}
	res.Value = u.Value()
	res.Stats.States, res.Stats.Transitions, res.Stats.Choices = u.States, u.Transitions, u.Choices
	res.Stats.Iterations = 1 // the seeded sweep that confirms the distances
	if !math.IsInf(res.Value, 1) {
		spe := sp.Child("synth.extract")
		res.Policy = u.Policy()
		spe.End()
	}
	res.Stats.Synthesis = time.Since(t1)
	telConstructNs.Add(res.Stats.Construction.Nanoseconds())
	telSolveNs.Add(res.Stats.Synthesis.Nanoseconds())
	telStates.Observe(float64(res.Stats.States))
	return res, true, nil
}

// synthesize is Alg. 2 over the induced MDP on arena ar: build, check the
// query, extract the strategy.
func synthesize(ar *smg.Arena, sp *telemetry.Span, rj route.RJ, field action.ForceField, opt Options) (Result, error) {
	var res Result
	t0 := time.Now()
	spb := sp.Child("synth.model_build")
	model, err := ar.Induce(rj.Hazard, rj.Start, rj.Goal, field, opt.Model)
	spb.End()
	if err != nil {
		return Result{}, fmt.Errorf("synth: %s: %w", rj.Name(), err)
	}
	res.Stats.Construction = time.Since(t0)
	res.Stats.States = model.M.NumStates()
	res.Stats.Transitions = model.M.NumTransitions()
	res.Stats.Choices = model.M.NumChoices()
	if opt.RetainModel {
		res.Model = model
	}
	telConstructNs.Add(res.Stats.Construction.Nanoseconds())
	telStates.Observe(float64(res.Stats.States))

	target, avoid, err := labelVectors(model, opt.Query)
	if err != nil {
		return Result{}, err
	}

	t1 := time.Now()
	sps := sp.Child("synth.solve")
	var solved mdp.Result
	switch opt.Query.Kind {
	case spec.RMin:
		solved, err = model.M.MinExpectedReward(target, avoid, opt.Solver)
	case spec.PMax:
		solved, err = model.M.MaxReachProb(target, avoid, opt.Solver)
	default:
		err = fmt.Errorf("synth: unsupported query kind %v", opt.Query.Kind)
	}
	sps.End()
	if err != nil {
		return Result{}, fmt.Errorf("synth: %s: %w", rj.Name(), err)
	}
	res.Stats.Synthesis = time.Since(t1)
	res.Stats.Iterations = solved.Iterations
	res.Value = solved.Values[model.Init]
	telSolveNs.Add(res.Stats.Synthesis.Nanoseconds())

	// PRISMG returns (∅, ∞) when no strategy exists (Alg. 2); mirror that.
	if opt.Query.Kind == spec.RMin && math.IsInf(res.Value, 1) {
		assertReduced(model, nil, rj.Hazard)
		return res, nil
	}
	if opt.Query.Kind == spec.PMax && mdp.IsZeroProb(res.Value) {
		assertReduced(model, nil, rj.Hazard)
		return res, nil
	}
	spe := sp.Child("synth.extract")
	res.Policy = model.Policy(solved.Strategy)
	spe.End()
	assertReduced(model, solved.Strategy, rj.Hazard)
	return res, nil
}

// labelVectors maps the query's label names onto the model's goal/hazard
// vectors; the routing model only defines these two labels.
func labelVectors(m *smg.Model, q spec.Query) (target, avoid []bool, err error) {
	switch q.Reach {
	case "goal":
		target = m.Goal
	case "hazard":
		target = m.Hazard
	default:
		return nil, nil, fmt.Errorf("synth: unknown reach label %q", q.Reach)
	}
	switch q.Avoid {
	case "":
		avoid = nil
	case "hazard":
		avoid = m.Hazard
	case "goal":
		avoid = m.Goal
	default:
		return nil, nil, fmt.Errorf("synth: unknown avoid label %q", q.Avoid)
	}
	return target, avoid, nil
}

// NormalizeDispense rewrites a dispense job so it can be synthesized and
// simulated: the droplet enters at the goal's nearest-edge projection and
// the hazard bounds grow to cover the entry (the paper generates dispense
// strategies as a movement perpendicular to the edge; routing from the edge
// projection reproduces exactly that).
func NormalizeDispense(rj route.RJ, w, h int) route.RJ {
	if !rj.Dispense || !rj.Start.IsZero() {
		return rj
	}
	entry := route.EntryRect(rj.Goal, w, h)
	rj.Start = entry
	rj.Hazard = route.Zone(entry, rj.Goal, w, h)
	return rj
}
