package mdp

import "meda/internal/telemetry"

// Solver telemetry (internal/telemetry default registry). Metrics are
// resolved once at init so the value-iteration hot loop pays only atomic
// adds; names are stable API for the /metrics endpoint and medabench.
var (
	// telSolves counts value-iteration solves (one per MaxReachProb or
	// MinExpectedReward call); telSweeps accumulates their sweeps, so
	// telSweeps/telSolves is the mean sweeps-to-convergence.
	telSolves = telemetry.C("mdp.vi.solves")
	telSweeps = telemetry.C("mdp.vi.sweeps")
	// telBackups accumulates the Bellman backups the solves evaluated.
	// The change-driven sweeps skip the backups of states none of whose successors
	// changed, so 1 − backups/(sweeps × live states) is the skipped share.
	// It is added once per solve.
	telBackups = telemetry.C("mdp.vi.backups")
	// telSweepsPerSolve is the distribution behind that mean.
	telSweepsPerSolve = telemetry.H("mdp.vi.sweeps_per_solve", telemetry.CountBuckets...)
	// telResidual is the max-norm residual of the last completed solve
	// (below Eps on convergence, the diverging delta on exhaustion).
	telResidual = telemetry.G("mdp.vi.last_residual")
	// telProb1E tracks the qualitative almost-sure-reachability pass that
	// precedes every Rmin solve: call count and cumulative nanoseconds.
	telProb1ECalls = telemetry.C("mdp.prob1e.calls")
	telProb1ENs    = telemetry.C("mdp.prob1e.ns")
)
