package synth

import "meda/internal/telemetry"

// Synthesis telemetry (internal/telemetry default registry). The span tree
// of one Synthesize call is synth.synthesize → {synth.model_build,
// synth.solve, synth.extract}, mirroring the phases of Alg. 2 whose
// durations Stats reports per call; the counters aggregate them
// process-wide.
var (
	telSyntheses   = telemetry.C("synth.syntheses")
	telConstructNs = telemetry.C("synth.construct_ns")
	telSolveNs     = telemetry.C("synth.solve_ns")
	// telUnit counts the syntheses solved on the unit path (all-healthy
	// windows, see synthesizeUnit). They build no MDP, so mdp.vi.solves,
	// mdp.vi.seeded and mdp.prob1e.* do not count them.
	telUnit = telemetry.C("synth.unit")
	// telStates is the distribution of induced model sizes.
	telStates = telemetry.H("synth.model_states",
		100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1e6)

	// Arena telemetry: model-construction slab recycling. Every Synthesize
	// checks an arena out of a sync.Pool (gets); a get whose arena has
	// built before is a reuse — its slabs are warm and construction runs
	// allocation-free. The gauge tracks the process-lifetime reuse ratio.
	telArenaGets       = telemetry.C("synth.arena.gets")
	telArenaReuses     = telemetry.C("synth.arena.reuses")
	telArenaReuseRatio = telemetry.G("synth.arena.reuse_ratio")
)
