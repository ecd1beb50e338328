// Package sim is the MEDA biochip simulation environment of Sec. VII
// (Fig. 14): it executes a compiled bioassay on a simulated biochip, cycle
// by cycle, with the hybrid scheduler of Alg. 3 driving droplets via
// router-provided strategies while the biochip degrades underneath them.
//
// Each operational cycle the scheduler (i) activates operations whose
// predecessors finished, fetching strategies from the router, (ii) selects
// the optimal action per droplet, (iii) aggregates the actuation matrix U
// and applies it (wearing the actuated microelectrodes — player ②'s move),
// (iv) samples each droplet's next position from the true degradation-driven
// outcome distribution, and (v) checks merge/split/hold/exit conditions. The
// execution aborts when the cycle budget k_max is exceeded.
//
// Droplets resting on the array (operation outputs awaiting their consumer,
// or droplets detained at a sensing module) are presented to the router as
// blocked regions, so strategies route around them; a droplet that still
// gets blocked triggers an asynchronous re-route, mirroring the paper's
// re-synthesis on state changes.
package sim

import (
	"fmt"
	"io"
	"sort"

	"meda/internal/action"
	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/fault"
	"meda/internal/geom"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
	"meda/internal/smg"
	"meda/internal/synth"
	"meda/internal/telemetry"
)

// Config tunes one execution.
type Config struct {
	// KMax is the per-execution cycle budget; exceeding it aborts the
	// bioassay (Sec. VII-C uses 1000).
	KMax int
	// CollisionMargin is the minimum separation, in cells, maintained
	// between droplets of different operations.
	CollisionMargin int
	// ResynthDelay models the latency, in cycles, between detecting a
	// health change (or an obstruction) and the asynchronously
	// re-synthesized strategy becoming available (Alg. 3).
	ResynthDelay int
	// MinResynthInterval rate-limits re-synthesis per job: once a new
	// strategy is installed, further triggers are coalesced for this many
	// cycles.
	MinResynthInterval int
	// Recovery configures reactive roll-back error recovery (Sec. II-C),
	// the technique the paper's proactive approach is contrasted with.
	Recovery RecoveryConfig
	// WearAwareActivation explores the paper's future-work direction of
	// optimizing the runtime order of microfluidic operations: when
	// several operations are ready, the one whose hazard zones are
	// healthiest activates first, deferring work in degraded regions for
	// as long as the dependency graph allows.
	WearAwareActivation bool
	// Faults is the soft-fault injection plan (internal/fault): stuck and
	// transiently failing microelectrodes, sensor misreads, and
	// control-plane faults. The zero plan injects nothing.
	Faults fault.Plan
	// MODeadline is the per-operation cycle budget (activation → done);
	// an operation that overruns it has its unfinished jobs degraded to
	// the router's final tier. Zero disables deadlines.
	MODeadline int
	// DivergenceLimit is how many divergence observations (off-policy
	// positions or physical no-move stalls) a job tolerates before the
	// runner blacklists the failing region and re-routes; at twice the
	// limit the job is degraded to the final-tier router. Zero disables
	// divergence tracking.
	DivergenceLimit int
	// CheckHazards audits droplet state after every cycle's motion:
	// droplets of different operations must never overlap and no droplet
	// may leave the array. Violations are counted, not fatal.
	CheckHazards bool
	// Checkpoint, when its Fn is non-nil, observes the execution every
	// Every cycles (and on the final cycle): the fleet service journals
	// progress, emits streaming events, and aborts cooperatively through
	// it (see checkpoint.go). The hook must not mutate chip or droplet
	// state; it runs on the executor's goroutine, so it never races the
	// simulation.
	Checkpoint CheckpointConfig
	// Concurrent enables the assay-level concurrent executor: every ready
	// operation activates as soon as its goal sites are mutually exclusive
	// (rather than waiting for whole-hazard-zone exclusivity), per-move
	// fluidic constraints keep concurrent droplets apart, reservoir
	// contention is arbitrated by waiting age, and wait-for cycles among
	// stalled droplets trigger deadlock recovery: the victim operation is
	// forcibly serialized behind its rivals. The default (false) keeps the
	// conservative one-zone-at-a-time discipline, which the differential
	// tests use as the oracle.
	Concurrent bool
}

// WithFaults returns the configuration with a fault plan attached and the
// graceful-degradation machinery (per-MO deadlines, divergence tracking,
// hazard auditing) enabled at its defaults where unset.
func (c Config) WithFaults(p fault.Plan) Config {
	c.Faults = p
	if c.MODeadline == 0 {
		c.MODeadline = 350
	}
	if c.DivergenceLimit == 0 {
		c.DivergenceLimit = 24
	}
	c.CheckHazards = true
	return c
}

// RecoveryConfig enables roll-back error recovery: when a droplet makes no
// progress for StallThreshold cycles, the error-recovery controller declares
// the operation failed, discards its droplets, and re-executes the operation
// together with every operation needed to regenerate the lost droplets
// (transitively, down to the dispense reservoirs).
type RecoveryConfig struct {
	Enabled bool
	// StallThreshold is the number of cycles without droplet movement
	// after which an operation is declared failed.
	StallThreshold int
	// MaxRollbacks caps recovery attempts per execution; beyond it the
	// execution runs down the clock (and aborts at KMax).
	MaxRollbacks int
}

// DefaultConfig mirrors the paper's evaluation settings (recovery off — the
// paper's two routers both run without reactive recovery; see Sec. VII-A).
func DefaultConfig() Config {
	return Config{KMax: 1000, CollisionMargin: 1, ResynthDelay: 2, MinResynthInterval: 5}
}

// DefaultRecovery returns the roll-back recovery configuration used by the
// proactive-vs-reactive extension experiment.
func DefaultRecovery() RecoveryConfig {
	return RecoveryConfig{Enabled: true, StallThreshold: 60, MaxRollbacks: 8}
}

// Execution is the outcome of running one bioassay once.
type Execution struct {
	// Success reports whether every operation completed within KMax.
	Success bool
	// Cycles is the number of operational cycles consumed (= KMax when
	// aborted).
	Cycles int
	// Stalls counts droplet-cycles spent holding for lack of a usable
	// action (no strategy, collision blocks, or unroutable region).
	Stalls int
	// Resyntheses counts strategy refreshes triggered by health changes
	// or obstructions.
	Resyntheses int
	// JobsCompleted counts finished routing jobs.
	JobsCompleted int
	// Rollbacks counts reactive error-recovery events (0 unless recovery
	// is enabled); RedoneOps counts the operations re-executed by them.
	Rollbacks int
	RedoneOps int
	// Divergences counts escalations of the planned-vs-observed divergence
	// detector (each escalation blacklists a suspect region and forces a
	// re-route); DegradedJobs counts jobs demoted to the router's final
	// tier, by divergence or MO deadline. Both stay 0 unless the
	// corresponding Config knobs are enabled.
	Divergences  int
	DegradedJobs int
	// HazardViolations counts post-motion audit failures (CheckHazards):
	// droplets of different operations overlapping, or a droplet off the
	// array. Always 0 in a correct execution.
	HazardViolations int
	// Concurrent-executor observations (zero unless Config.Concurrent,
	// except PeakDroplets which is tracked in every mode): Deadlocks counts
	// detected wait-for cycles among stalled droplets, SerializedOps counts
	// victim operations forcibly serialized behind their rivals (rolled
	// back and deferred), and DispenseDeferrals counts droplet-cycles a
	// pending dispense spent waiting its turn at a contended reservoir.
	Deadlocks         int
	SerializedOps     int
	DispenseDeferrals int
	// PeakDroplets is the maximum number of droplets simultaneously on the
	// array at any cycle of the execution.
	PeakDroplets int
}

// CycleHook observes each cycle's actuation patterns (used by the Fig. 3
// correlation study to record per-cell actuation vectors).
type CycleHook func(k int, patterns []geom.Rect)

// Runner executes bioassays on a biochip. The chip's wear persists across
// executions, modeling device reuse (Sec. VII-B).
type Runner struct {
	Cfg    Config
	Chip   *chip.Chip
	Router sched.Router
	Hook   CycleHook
	// Debug, when non-nil, receives a per-droplet state dump every
	// DebugEvery cycles — a development aid for diagnosing schedules.
	Debug      io.Writer
	DebugEvery int
	src        *randx.Source
	// inferredFaults are regions the reactive error-recovery controller
	// has learned to avoid within the current execution: wherever a
	// droplet stalled before a rollback. Health-blind routers cannot
	// sense dead microelectrodes, but they can remember where droplets
	// died — the essence of retrial-with-rerouting recovery. The
	// divergence detector feeds the same list: regions a droplet
	// physically cannot enter are blacklisted whether or not the health
	// sensor agrees.
	inferredFaults []geom.Rect
	// inj is the soft-fault injector built from Cfg.Faults on first
	// Execute; it persists across executions (stuck cells, like wear, do
	// not heal between bioassays).
	inj *fault.Injector
	// cs is the concurrent executor's per-execution state, nil outside an
	// Execute call with Cfg.Concurrent set. Held on the Runner so deferred
	// splits and merges (progress path) can record wait-for edges for
	// deadlock detection.
	cs *concurrentState
}

// NewRunner assembles a simulation environment.
func NewRunner(cfg Config, c *chip.Chip, router sched.Router, src *randx.Source) *Runner {
	return &Runner{Cfg: cfg, Chip: c, Router: router, src: src}
}

type moState int

const (
	moInit moState = iota
	moActive
	moDone
)

// jobRT is the runtime state of one routing job.
type jobRT struct {
	rj     route.RJ
	mo     int
	policy synth.Policy
	hash   uint64 // health hash the current policy was built from
	// re-synthesis bookkeeping.
	pending        bool
	obstacleDirty  bool
	nextTry        int
	blockedStreak  int
	extraObstacles []geom.Rect
	// widen inflates the synthesis window beyond the planned hazard bounds
	// (concurrent mode only): when the goal is unreachable because foreign
	// droplets obstruct the planned corridor, successive re-syntheses search
	// progressively wider windows so the route can detour around them.
	widen    int
	done     bool
	droplet  *dropletRT
	routable bool
	// divergence counts planned-vs-observed mismatch observations since
	// the droplet last moved on-policy; degraded marks the job as demoted
	// to the router's final tier for the rest of the execution.
	divergence int
	degraded   bool
}

// dropletRT is a droplet on the chip.
type dropletRT struct {
	rect geom.Rect
	mo   int    // owning operation (consumer), -1 when resting as an output
	job  *jobRT // active routing job, nil when resting or detained
	// lastMove is the cycle of the droplet's last position change (or its
	// creation), used by reactive error recovery to detect stalls.
	lastMove int
}

// quasiStatic reports whether the droplet will stay put until some other
// operation acts: resting outputs, detained droplets, droplets whose job has
// finished, and droplets parked in their goal region (e.g. awaiting a merge
// partner).
func (d *dropletRT) quasiStatic() bool {
	if d.job == nil || d.job.done {
		return true
	}
	return smg.GoalLabel(d.rect, d.job.rj.Goal)
}

// moRT is the runtime state of one operation.
type moRT struct {
	cm    *route.CompiledMO
	state moState
	phase int
	jobs  []*jobRT
	// activatedAt is the cycle the operation became active; recorded marks
	// that its activation→done cycle count has been observed by telemetry.
	activatedAt int
	recorded    bool
	holdLeft    int  // mag hold countdown (runs once the droplet arrives)
	holding     bool // mag droplet has arrived and is being detained
	// pendingSplit is the droplet awaiting a split (a spt parent or a
	// dilution's merged droplet); the split is deferred until the half
	// positions are clear of foreign droplets. splitWait counts deferred
	// cycles: after a long wait the margin requirement is dropped so two
	// wedged operations cannot starve each other.
	pendingSplit *dropletRT
	splitWait    int
	// mergeWait counts cycles a concurrent-mode coalesce was deferred
	// because a foreign droplet sat inside the merged footprint's margin
	// (the merged rectangle extends past its sources, so materializing it
	// next to a transiting droplet would violate the fluidic constraints).
	mergeWait int
	// degraded marks that the operation overran its per-MO deadline and
	// its jobs were demoted to the final-tier router.
	degraded bool
}

type outputKey struct{ mo, slot int }

// Execute runs the bioassay once. The same Runner may be called repeatedly;
// wear accumulates on the chip between executions.
func (r *Runner) Execute(plan *route.Plan) (Execution, error) {
	sp := telemetry.StartSpan("sim.execute")
	exec, err := r.execute(plan)
	sp.End()
	if err != nil {
		return exec, err
	}
	telExecutions.Inc()
	telCycles.Add(int64(exec.Cycles))
	telStalls.Add(int64(exec.Stalls))
	telResyntheses.Add(int64(exec.Resyntheses))
	telJobsDone.Add(int64(exec.JobsCompleted))
	telRollbacks.Add(int64(exec.Rollbacks))
	telExecCycles.Observe(float64(exec.Cycles))
	if !exec.Success {
		telAborts.Inc()
	}
	return exec, nil
}

// execute is the uninstrumented body of Execute.
func (r *Runner) execute(plan *route.Plan) (Execution, error) {
	if plan.W != r.Chip.W() || plan.H != r.Chip.H() {
		return Execution{}, fmt.Errorf("sim: plan compiled for %d×%d but chip is %d×%d",
			plan.W, plan.H, r.Chip.W(), r.Chip.H())
	}
	if r.Cfg.Faults.Enabled() && r.inj == nil {
		if err := r.Cfg.Faults.Validate(); err != nil {
			return Execution{}, err
		}
		r.inj = fault.New(r.Cfg.Faults, r.Chip.W(), r.Chip.H())
		r.Chip.AttachFaults(r.inj)
		if fa, ok := r.Router.(sched.FaultAware); ok {
			fa.SetFaultInjector(r.inj)
		}
	}
	mos := make([]*moRT, len(plan.MOs))
	for i := range plan.MOs {
		cm := &plan.MOs[i]
		m := &moRT{cm: cm}
		for j := range cm.Jobs {
			rj := synth.NormalizeDispense(cm.Jobs[j], plan.W, plan.H)
			m.jobs = append(m.jobs, &jobRT{rj: rj, mo: i, routable: true})
		}
		mos[i] = m
	}
	// consumerOf maps a dispense operation to the operation consuming its
	// droplet, for just-in-time dispensing.
	consumerOf := make([]int, len(plan.MOs))
	for i := range consumerOf {
		consumerOf[i] = -1
	}
	for i := range plan.MOs {
		for _, slot := range plan.MOs[i].InSlots {
			if plan.MOs[slot[0]].MO.Type == assay.Dis {
				consumerOf[slot[0]] = i
			}
		}
	}
	outputs := make(map[outputKey]*dropletRT)
	var droplets []*dropletRT
	var exec Execution
	r.inferredFaults = nil
	// cs is non-nil only in concurrent mode; every branch it gates leaves
	// the default one-zone-at-a-time path bit-for-bit unchanged, so the
	// sequential executor stays a valid differential oracle.
	var cs *concurrentState
	if r.Cfg.Concurrent {
		cs = newConcurrentState(len(mos))
	}
	r.cs = cs
	defer func() { r.cs = nil }()

	removeDroplet := func(d *dropletRT) {
		for i, q := range droplets {
			if q == d {
				droplets = append(droplets[:i], droplets[i+1:]...)
				return
			}
		}
	}

	// ready reports whether an operation's dependencies are met. Dispense
	// operations additionally wait until their consumer's other inputs are
	// done (just-in-time dispensing), so reagent droplets do not sit on
	// the array blocking unrelated routes.
	ready := func(id int) bool {
		m := mos[id]
		if m.state != moInit {
			return false
		}
		for _, pre := range m.cm.MO.Pre {
			if mos[pre].state != moDone {
				return false
			}
		}
		if m.cm.MO.Type != assay.Dis {
			return true
		}
		c := consumerOf[id]
		if c < 0 {
			return true
		}
		for _, pre := range mos[c].cm.MO.Pre {
			if pre == id || mos[pre].state == moDone {
				continue
			}
			if plan.MOs[pre].MO.Type == assay.Dis {
				continue // sibling dispense: jointly ready
			}
			return false
		}
		return true
	}

	// claims returns the resting droplets an operation would pick up on
	// activation.
	claims := func(id int) map[*dropletRT]bool {
		out := map[*dropletRT]bool{}
		for _, slot := range mos[id].cm.InSlots {
			if d, ok := outputs[outputKey{slot[0], slot[1]}]; ok {
				out[d] = true
			}
		}
		return out
	}

	// canReserve implements hazard zones as exclusive resources (their
	// 3-cell safety margin exists "to prevent accidental merging"): a new
	// operation's zones must not overlap any active operation's zones,
	// nor cover a foreign resting droplet. This keeps concurrent routes
	// apart; the collision guard, obstacle-aware re-routing, and
	// sidestepping below handle whatever still meets.
	canReserve := func(id int) bool {
		mine := claims(id)
		for _, j := range mos[id].jobs {
			for oid, om := range mos {
				if oid == id || om.state != moActive {
					continue
				}
				for _, oj := range om.jobs {
					if j.rj.Hazard.Overlaps(oj.rj.Hazard) {
						return false
					}
				}
			}
			for _, d := range droplets {
				if d.mo == -1 && !mine[d] && j.rj.Hazard.Overlaps(d.rect.Expand(r.Cfg.CollisionMargin)) {
					return false
				}
			}
		}
		return true
	}

	lastProgress := 0
	for k := 1; k <= r.Cfg.KMax; k++ {
		exec.Cycles = k

		// 1. Activate ready operations (Alg. 3 init → active) whose
		// hazard zones can be reserved. If the discipline wedges (no
		// active work, or no progress for a long stretch), force the
		// lowest ready operation through and let the per-droplet
		// fallbacks arbitrate.
		var readyIDs []int
		anyActive := false
		for id, m := range mos {
			if m.state == moActive {
				anyActive = true
			}
			if ready(id) && (cs == nil || cs.mayActivate(id, k, mos)) {
				readyIDs = append(readyIDs, id)
			}
		}
		if r.Cfg.WearAwareActivation && len(readyIDs) > 1 {
			sort.SliceStable(readyIDs, func(i, j int) bool {
				return r.zoneHealth(mos[readyIDs[i]]) > r.zoneHealth(mos[readyIDs[j]])
			})
		}
		activated := false
		for _, id := range readyIDs {
			ok := false
			if cs != nil {
				ok = r.canActivateConcurrent(id, mos, droplets, claims(id))
			} else {
				ok = canReserve(id)
			}
			if ok {
				r.activate(mos[id], id, outputs, &droplets, k, &exec)
				activated = true
				anyActive = true
			}
		}
		if !activated && len(readyIDs) > 0 && (!anyActive || k-lastProgress > 100) {
			r.activate(mos[readyIDs[0]], readyIDs[0], outputs, &droplets, k, &exec)
			lastProgress = k
		}

		// 1b. Pending dispenses: spawn when the entry area clears. In
		// concurrent mode a contended reservoir is arbitrated by waiting
		// age (longest-deferred dispense first), so none starves.
		if cs != nil {
			r.arbitrateSpawns(cs, mos, k, &droplets, &exec)
		} else {
			for id, m := range mos {
				if m.state == moActive && m.cm.MO.Type == assay.Dis && m.jobs[0].droplet == nil {
					r.trySpawn(m, id, k, &droplets)
				}
			}
		}
		if n := len(droplets); n > exec.PeakDroplets {
			exec.PeakDroplets = n
		}
		if cs != nil {
			cs.observeCycle(len(droplets))
		}

		// 1c. Per-MO deadlines: an operation running far past activation is
		// degraded — its unfinished jobs are demoted to the router's final
		// tier, trading route quality for guaranteed progress.
		if r.Cfg.MODeadline > 0 {
			for _, m := range mos {
				if m.state != moActive || m.degraded || k-m.activatedAt <= r.Cfg.MODeadline {
					continue
				}
				m.degraded = true
				telMODeadline.Inc()
				for _, j := range m.jobs {
					if j.done || j.degraded {
						continue
					}
					j.degraded = true
					j.obstacleDirty = true
					exec.DegradedJobs++
					telDegradedJobs.Inc()
				}
			}
		}

		// 2. Asynchronous re-synthesis (Alg. 3): refresh strategies whose
		// region's health changed or that ran into an obstruction.
		for _, m := range mos {
			if m.state != moActive {
				continue
			}
			for _, j := range m.jobs {
				if j.done || j.droplet == nil {
					continue
				}
				dirty := j.obstacleDirty
				healthDirty := false
				if r.Router.HealthAware() && j.routable && !dirty {
					healthDirty = r.Chip.HealthHash(j.rj.Hazard) != j.hash
					dirty = healthDirty
				}
				if dirty && !j.pending {
					if healthDirty {
						if inv, ok := r.Router.(sched.RegionInvalidator); ok {
							// The job's region covers the degraded cells
							// that triggered the refresh: evict overlapping
							// strategies eagerly.
							inv.InvalidateRegion(j.rj.Hazard)
						}
					}
					j.pending = true
					if k+r.Cfg.ResynthDelay > j.nextTry {
						j.nextTry = k + r.Cfg.ResynthDelay
					}
				}
				if j.pending && k >= j.nextTry {
					r.install(j, k, droplets, &exec)
				}
			}
		}

		// 3. Select actions and build the actuation matrix U.
		if cs != nil {
			cs.resetWaits()
		}
		patterns := make([]geom.Rect, 0, len(droplets))
		intents := make([]geom.Rect, len(droplets)) // committed region per droplet
		acts := make([]action.Action, len(droplets))
		moving := make([]bool, len(droplets))
		for i, d := range droplets {
			intents[i] = d.rect // default: hold in place
			if d.job == nil || d.job.done {
				patterns = append(patterns, d.rect)
				continue
			}
			if smg.GoalLabel(d.rect, d.job.rj.Goal) {
				// Arrived; wait for the operation-level condition
				// (merge rendezvous, phase change) to pick it up.
				patterns = append(patterns, d.rect)
				continue
			}
			a, ok := d.job.policy[d.rect]
			if !ok {
				// Off-policy position or unroutable region: keep
				// probing for a way out as health/obstacles evolve.
				exec.Stalls++
				d.job.obstacleDirty = true
				r.noteDivergence(d, &exec)
				if cs != nil {
					if b := unroutableBlocker(d, droplets); b != nil {
						cs.waits[d] = b
					}
				}
				patterns = append(patterns, d.rect)
				continue
			}
			target := a.Apply(d.rect)
			if blocker := r.blockedBy(d, target, droplets, intents, i); blocker != nil {
				exec.Stalls++
				d.job.blockedStreak++
				if cs != nil {
					cs.waits[d] = blocker
				}
				if blocker.quasiStatic() {
					d.job.obstacleDirty = true
				} else if d.job.blockedStreak >= blockedStreakLimit {
					// Two moving droplets wedged head-on: re-route
					// around the other one as if it were parked.
					d.job.obstacleDirty = true
					d.job.extraObstacles = append(d.job.extraObstacles,
						blocker.rect.Expand(r.Cfg.CollisionMargin))
				}
				if d.job.blockedStreak >= 2*blockedStreakLimit {
					// Re-routing has not helped; physically sidestep
					// to dissolve multi-droplet knots.
					if alt, nt, ok2 := r.sidestep(d, droplets, intents, i); ok2 {
						intents[i] = nt.Union(d.rect)
						acts[i] = alt
						moving[i] = true
						patterns = append(patterns, nt)
						continue
					}
				}
				patterns = append(patterns, d.rect)
				continue
			}
			d.job.blockedStreak = 0
			intents[i] = target.Union(d.rect)
			acts[i] = a
			moving[i] = true
			patterns = append(patterns, target)
		}

		// 4. Apply U: wear the actuated microelectrodes (player ②).
		r.Chip.Actuate(patterns...)
		if r.Hook != nil {
			r.Hook(k, patterns)
		}

		// 5. Sample droplet motion from the true outcome distributions.
		dropletsBefore := len(droplets)
		for i, d := range droplets {
			if !moving[i] {
				continue
			}
			outs := action.Outcomes(d.rect, acts[i], r.Chip.TrueForceField())
			weights := make([]float64, len(outs))
			for oi, o := range outs {
				weights[oi] = o.P
			}
			next := outs[r.src.Choose(weights)].Droplet
			if next != d.rect {
				lastProgress = k
				d.lastMove = k
				if d.job != nil {
					d.job.divergence = 0
				}
			} else {
				// The chip was commanded to move the droplet and it stayed
				// put — physical divergence from the plan (a stuck-off
				// region produces exactly this signature).
				r.noteDivergence(d, &exec)
			}
			d.rect = next
		}

		// 5b. Hazard audit: after this cycle's motion no droplet may sit
		// off-array and no two droplets of different operations may
		// overlap (accidental merging — the violation the 3-cell hazard
		// margin exists to prevent).
		if r.Cfg.CheckHazards {
			exec.HazardViolations += r.auditHazards(droplets)
		}

		// 6. Completion checks: job arrivals, merges, holds, exits.
		prevJobs := exec.JobsCompleted
		for id, m := range mos {
			if m.state != moActive {
				continue
			}
			r.progress(m, id, outputs, &droplets, removeDroplet, &exec)
		}
		if exec.JobsCompleted > prevJobs || len(droplets) != dropletsBefore {
			lastProgress = k
		}

		// 6a. Concurrent-mode deadlock detection and recovery: wait-for
		// cycles among droplets stalled past patience are broken by forcibly
		// serializing a victim operation behind its rivals.
		if cs != nil && r.detectDeadlocks(cs, mos, plan, outputs, &droplets, k, &exec) {
			lastProgress = k
		}

		// 6b. Reactive error recovery (when enabled), in the paper's two
		// tiers (Sec. II-C). Retrial: a droplet stalled for half the
		// threshold has its suspected dead region blacklisted and its
		// route re-planned. Roll-back: a droplet still stuck at the full
		// threshold fails its operation; the operation and everything
		// needed to regenerate its droplets are re-executed.
		if r.Cfg.Recovery.Enabled {
			failed := -1
			for id, m := range mos {
				if m.state != moActive {
					continue
				}
				for _, j := range m.jobs {
					d := j.droplet
					if d == nil || j.done || d.job == nil {
						continue
					}
					if smg.GoalLabel(d.rect, j.rj.Goal) {
						continue
					}
					stalled := k - d.lastMove
					if stalled > r.Cfg.Recovery.StallThreshold {
						if failed < 0 && exec.Rollbacks < r.Cfg.Recovery.MaxRollbacks {
							failed = id
						}
						continue
					}
					if stalled > r.Cfg.Recovery.StallThreshold/2 && j.routable {
						// Retrial: blacklist the unreachable next step
						// and re-route this job around it.
						if a, ok := j.policy[d.rect]; ok {
							if r.inferFault(a.Apply(d.rect)) {
								j.obstacleDirty = true
							}
						}
					}
				}
			}
			if failed >= 0 {
				r.inferFaults(mos[failed], k)
				rollback(mos, plan, failed, outputs, &droplets, &exec)
				exec.Rollbacks++
				lastProgress = k
			}
		}

		if r.Debug != nil && r.DebugEvery > 0 && k%r.DebugEvery == 0 {
			r.dump(k, mos, droplets)
		}

		// 6c. Per-MO telemetry: observe each operation's activation→done
		// cycle count the cycle it completes.
		for _, m := range mos {
			if m.state == moDone && !m.recorded {
				m.recorded = true
				telMOCycles.Observe(float64(k - m.activatedAt))
			}
		}

		// 7. Finished?
		allDone := true
		for _, m := range mos {
			if m.state != moDone {
				allDone = false
				break
			}
		}
		if allDone {
			exec.Success = true
			if err := r.checkpoint(k, &exec, len(droplets), true); err != nil {
				return exec, err
			}
			return exec, nil
		}

		// 7b. Periodic checkpoint: observe progress and honor cooperative
		// aborts (cancellation, controller shutdown). Placed after the
		// completion check so a finished execution is never aborted on its
		// final cycle.
		if err := r.checkpoint(k, &exec, len(droplets), false); err != nil {
			return exec, err
		}
	}
	if err := r.checkpoint(r.Cfg.KMax, &exec, len(droplets), true); err != nil {
		return exec, err
	}
	return exec, nil
}

// dump writes a state snapshot for debugging.
func (r *Runner) dump(k int, mos []*moRT, droplets []*dropletRT) {
	fmt.Fprintf(r.Debug, "--- k=%d\n", k)
	for id, m := range mos {
		if m.state == moActive {
			fmt.Fprintf(r.Debug, "  M%d %s active phase=%d holding=%v\n", id, m.cm.MO.Type, m.phase, m.holding)
			for _, j := range m.jobs {
				var rect interface{} = "nil"
				if j.droplet != nil {
					rect = j.droplet.rect
				}
				fmt.Fprintf(r.Debug, "    %s done=%v routable=%v policy=%d droplet=%v goal=%v streak=%d\n",
					j.rj.Name(), j.done, j.routable, len(j.policy), rect, j.rj.Goal, j.blockedStreak)
			}
		}
	}
	for _, d := range droplets {
		fmt.Fprintf(r.Debug, "  droplet mo=%d rect=%v static=%v\n", d.mo, d.rect, d.quasiStatic())
	}
}

// obstaclesFor returns the margin-expanded rectangles of quasi-static
// droplets foreign to the given operation — the regions a new strategy must
// route around — plus any fault regions the reactive recovery controller has
// inferred from earlier stalls.
func (r *Runner) obstaclesFor(moID int, droplets []*dropletRT) []geom.Rect {
	var out []geom.Rect
	for _, d := range droplets {
		if d.mo == moID {
			continue
		}
		if d.quasiStatic() {
			out = append(out, d.rect.Expand(r.Cfg.CollisionMargin))
		}
	}
	out = append(out, r.inferredFaults...)
	return out
}

// noteDivergence records one planned-vs-observed mismatch for the droplet's
// job. Every DivergenceLimit observations the runner escalates: the step the
// plan keeps failing on is blacklisted (feeding obstaclesFor, like the
// reactive-recovery retrial tier) and the job re-routes; at twice the limit
// the job is degraded to the router's final tier — the bottom rung of the
// graceful-degradation ladder.
func (r *Runner) noteDivergence(d *dropletRT, exec *Execution) {
	lim := r.Cfg.DivergenceLimit
	j := d.job
	if lim <= 0 || j == nil || j.done {
		return
	}
	j.divergence++
	if j.divergence%lim != 0 {
		return
	}
	exec.Divergences++
	telDivergences.Inc()
	if a, ok := j.policy[d.rect]; ok {
		// The plan keeps commanding this step and the droplet keeps not
		// arriving: treat the target region as physically suspect whether
		// or not the health sensor agrees (it may be lying).
		r.inferFault(a.Apply(d.rect))
	}
	j.obstacleDirty = true
	if j.divergence >= 2*lim && !j.degraded {
		j.degraded = true
		exec.DegradedJobs++
		telDegradedJobs.Inc()
	}
}

// auditHazards counts fluidic-safety violations in the current droplet
// state: droplets (partially) off the array, and droplets of different
// operations overlapping. Droplets of the same operation are exempt — mix
// rendezvous intentionally brings them together.
func (r *Runner) auditHazards(droplets []*dropletRT) int {
	violations := 0
	bounds := r.Chip.Bounds()
	for i, d := range droplets {
		if !bounds.ContainsRect(d.rect) {
			violations++
			telHazardViolate.Inc()
			if r.Debug != nil {
				fmt.Fprintf(r.Debug, "hazard: droplet mo=%d at %v off-array\n", d.mo, d.rect)
			}
		}
		for _, q := range droplets[i+1:] {
			if d.mo >= 0 && d.mo == q.mo {
				continue
			}
			if d.rect.Overlaps(q.rect) {
				violations++
				telHazardViolate.Inc()
				if r.Debug != nil {
					fmt.Fprintf(r.Debug, "hazard: droplets mo=%d at %v and mo=%d at %v overlap\n",
						d.mo, d.rect, q.mo, q.rect)
				}
			}
		}
	}
	return violations
}

// inferFault records a suspected dead region, deduplicating; it reports
// whether the region is new.
func (r *Runner) inferFault(region geom.Rect) bool {
	for _, f := range r.inferredFaults {
		if f == region {
			return false
		}
	}
	r.inferredFaults = append(r.inferredFaults, region)
	return true
}

// inferFaults records, for every stalled droplet of a failed operation, the
// region it could not enter (its next strategy step), so retried routes
// steer around the suspected dead microelectrodes.
func (r *Runner) inferFaults(m *moRT, k int) {
	for _, j := range m.jobs {
		d := j.droplet
		if d == nil || j.done || d.job == nil {
			continue
		}
		if k-d.lastMove <= r.Cfg.Recovery.StallThreshold {
			continue
		}
		if a, ok := j.policy[d.rect]; ok {
			r.inferFault(a.Apply(d.rect))
		} else {
			// No usable action at all: blacklist the spot itself so the
			// retry approaches the goal from elsewhere.
			r.inferFault(d.rect)
		}
	}
}

// activate transitions an operation from init to active: claims input
// droplets, spawns/splits as needed, and fetches phase-0 strategies.
func (r *Runner) activate(m *moRT, id int, outputs map[outputKey]*dropletRT, droplets *[]*dropletRT, k int, exec *Execution) {
	m.state = moActive
	m.activatedAt = k
	cm := m.cm
	claim := func(j int) *dropletRT {
		key := outputKey{cm.InSlots[j][0], cm.InSlots[j][1]}
		d := outputs[key]
		delete(outputs, key)
		if d != nil {
			d.lastMove = k
		}
		return d
	}
	switch cm.MO.Type {
	case assay.Dis:
		// Droplet spawns in step 1b once the entry area is clear.
		r.fetch(m.jobs[0], k, *droplets, exec)

	case assay.Out, assay.Dsc, assay.Mag:
		d := claim(0)
		d.mo = id
		d.job = m.jobs[0]
		m.jobs[0].droplet = d
		r.fetch(m.jobs[0], k, *droplets, exec)

	case assay.Mix, assay.Dlt:
		// Phase 0: the two inputs route to the mix site.
		for j := 0; j < 2; j++ {
			d := claim(j)
			d.mo = id
			d.job = m.jobs[j]
			m.jobs[j].droplet = d
			r.fetch(m.jobs[j], k, *droplets, exec)
		}

	case assay.Spt:
		// The parent holds in place until the split area is clear
		// (progress() retries the split each cycle).
		parent := claim(0)
		parent.mo = id
		parent.job = nil
		m.pendingSplit = parent
	}
}

// trySplit replaces a pending parent/merged droplet with its two halves at
// the jobs' start rectangles, provided no foreign droplet is within the
// collision margin of the split area. Returns true when the split happened.
func (r *Runner) trySplit(m *moRT, id, jlo, k int, droplets *[]*dropletRT, exec *Execution) bool {
	s0 := m.jobs[jlo].rj.Start
	s1 := m.jobs[jlo+1].rj.Start
	margin := r.Cfg.CollisionMargin
	if m.splitWait > 50 {
		margin = 0 // wedged against an adjacent droplet: split anyway
	}
	zone := s0.Union(s1).Expand(margin)
	var blocker *dropletRT
	for _, d := range *droplets {
		if d == m.pendingSplit || d.mo == id {
			continue
		}
		if zone.Overlaps(d.rect) {
			if blocker == nil || (!blocker.quasiStatic() && d.quasiStatic()) {
				blocker = d
			}
		}
	}
	if blocker != nil {
		m.splitWait++
		if r.cs != nil && m.splitWait > 60 {
			// Still wedged past the margin-0 fallback: the pending parent
			// waits on whatever blocks its split area. Two adjacent pending
			// splits can block each other's areas even at margin 0, a
			// wait-for cycle only deadlock recovery resolves.
			r.cs.waits[m.pendingSplit] = blocker
		}
		if r.Debug != nil && m.splitWait%25 == 0 {
			fmt.Fprintf(r.Debug, "split M%d deferred %d cycles: zone=%v blocked by mo=%d at %v\n",
				id, m.splitWait, zone, blocker.mo, blocker.rect)
		}
		return false
	}
	removeFrom(droplets, m.pendingSplit)
	m.pendingSplit = nil
	m.splitWait = 0
	for j := jlo; j < jlo+2; j++ {
		half := &dropletRT{rect: m.jobs[j].rj.Start, mo: id, job: m.jobs[j], lastMove: k}
		m.jobs[j].droplet = half
		*droplets = append(*droplets, half)
		r.fetch(m.jobs[j], k, *droplets, exec)
	}
	return true
}

// trySpawn places a dispense droplet at its entry rectangle when the area is
// clear of other droplets.
func (r *Runner) trySpawn(m *moRT, id, k int, droplets *[]*dropletRT) {
	j := m.jobs[0]
	entry := j.rj.Start.Expand(r.Cfg.CollisionMargin)
	for _, d := range *droplets {
		if entry.Overlaps(d.rect) {
			return
		}
	}
	d := &dropletRT{rect: j.rj.Start, mo: id, job: j, lastMove: k}
	j.droplet = d
	*droplets = append(*droplets, d)
}

// blockedStreakLimit is how many consecutive blocked cycles a droplet
// tolerates before treating a moving blocker as an obstacle to route around;
// at twice the limit it starts sidestepping physically.
const blockedStreakLimit = 4

// sidestep picks an alternative single/ordinal move for a wedged droplet:
// the unblocked in-bounds move whose destination is closest to the goal
// (which may temporarily increase the distance). Returns ok=false when every
// direction is blocked.
func (r *Runner) sidestep(d *dropletRT, droplets []*dropletRT, intents []geom.Rect, i int) (action.Action, geom.Rect, bool) {
	type cand struct {
		a    action.Action
		t    geom.Rect
		dist float64
	}
	gx, gy := d.job.rj.Goal.Center()
	var best *cand
	for _, a := range action.All() {
		switch a.Class() {
		case action.Cardinal, action.Ordinal:
		default:
			continue
		}
		t := a.Apply(d.rect)
		if !d.job.rj.Hazard.ContainsRect(t) {
			continue
		}
		if r.blockedBy(d, t, droplets, intents, i) != nil {
			continue
		}
		cx, cy := t.Center()
		c := cand{a: a, t: t, dist: abs(cx-gx) + abs(cy-gy)}
		if best == nil || c.dist < best.dist {
			cc := c
			best = &cc
		}
	}
	if best == nil {
		return 0, geom.Rect{}, false
	}
	return best.a, best.t, true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// fetch obtains a job's strategy from the router, routing around the
// current quasi-static droplets (and any droplets the job was recently
// wedged against).
func (r *Runner) fetch(j *jobRT, k int, droplets []*dropletRT, exec *Execution) {
	obstacles := append(r.obstaclesFor(j.mo, droplets), j.extraObstacles...)
	rj := j.rj
	if j.droplet != nil {
		// Strategies are re-synthesized from wherever the droplet is
		// now; the current position is exempt from obstacle pruning so
		// the droplet can always step out of a freshly blocked margin.
		rj.Start = j.droplet.rect
		rj.Dispense = false
	}
	if j.widen > 0 {
		b := r.Chip.Bounds()
		rj.Hazard = rj.Hazard.Expand(j.widen).Clamp(b.Width(), b.Height())
	}
	var policy synth.Policy
	var err error
	if dr, ok := r.Router.(sched.DegradedRouter); ok && j.degraded {
		// A degraded job skips the primary router entirely: its model has
		// repeatedly failed to predict this droplet's motion.
		policy, _, err = dr.RouteDegraded(rj, r.Chip, obstacles)
	} else {
		policy, _, err = r.Router.Route(rj, r.Chip, obstacles)
	}
	j.hash = r.Chip.HealthHash(j.rj.Hazard)
	j.nextTry = k + r.Cfg.MinResynthInterval
	j.pending = false
	j.obstacleDirty = false
	j.extraObstacles = nil
	j.blockedStreak = 0
	if r.Debug != nil && (err != nil || len(policy) == 0) {
		fmt.Fprintf(r.Debug, "fetch %s at k=%d: err=%v policy=%d obstacles=%v start=%v\n",
			j.rj.Name(), k, err, len(policy), obstacles, rj.Start)
	}
	if err != nil || len(policy) == 0 {
		// No strategy exists (e.g. dead or fully obstructed region): the
		// droplet holds; re-routes keep probing as conditions change,
		// and the execution runs down the clock if none appears —
		// matching the paper's "droplet stuck at faulty
		// microelectrodes" failure mode. In concurrent mode an
		// obstruction by foreign droplets additionally widens the next
		// synthesis window, so head-on meetings in open space dissolve
		// by detouring instead of wedging until deadlock recovery.
		if r.Cfg.Concurrent && len(obstacles) > 0 && j.widen < widenMax {
			j.widen += widenStep
		}
		j.policy = nil
		j.routable = false
		return
	}
	j.policy = policy
	j.routable = true
}

// install performs a delayed re-synthesis against current health and
// obstacles.
func (r *Runner) install(j *jobRT, k int, droplets []*dropletRT, exec *Execution) {
	r.fetch(j, k, droplets, exec)
	exec.Resyntheses++
}

// blockedBy returns a droplet of another operation that the intended move
// would violate the fluidic constraints with, or nil when the move is clear.
// The incremental per-cycle form of the static/dynamic envelope (see
// HazardFree): a droplet's next position is checked against the cur∪next
// region of every droplet already committed this cycle (static + dynamic
// halves at once) and against the current position of every droplet yet to
// move (the dynamic half; the mover's own half is checked when its turn
// comes).
func (r *Runner) blockedBy(d *dropletRT, target geom.Rect, droplets []*dropletRT, intents []geom.Rect, i int) *dropletRT {
	// Only the destination is margin-checked: a droplet that finds itself
	// within an obstacle's margin (e.g. a merge product appeared next to
	// it) must still be able to step away.
	for q, other := range droplets {
		if q == i || other.mo == d.mo {
			continue
		}
		// Compare against the other droplet's committed region (earlier
		// droplets this cycle) or current position (later ones).
		region := other.rect
		if q < i {
			region = region.Union(intents[q])
		}
		if zoneConflict(target, region, r.Cfg.CollisionMargin) {
			return other
		}
	}
	return nil
}

func removeFrom(droplets *[]*dropletRT, d *dropletRT) {
	for i, q := range *droplets {
		if q == d {
			*droplets = append((*droplets)[:i], (*droplets)[i+1:]...)
			return
		}
	}
}

// progress advances an active operation after this cycle's movement:
// arrivals, merges, holds, splits, exits, and the done transition.
func (r *Runner) progress(m *moRT, id int, outputs map[outputKey]*dropletRT,
	droplets *[]*dropletRT, remove func(*dropletRT), exec *Execution) {
	cm := m.cm
	arrived := func(j *jobRT) bool {
		return j.droplet != nil && smg.GoalLabel(j.droplet.rect, j.rj.Goal)
	}
	finishJob := func(j *jobRT) {
		if !j.done {
			j.done = true
			exec.JobsCompleted++
		}
	}
	rest := func(d *dropletRT, slot int) {
		d.job = nil
		d.mo = -1
		outputs[outputKey{id, slot}] = d
	}

	switch cm.MO.Type {
	case assay.Dis:
		j := m.jobs[0]
		if arrived(j) {
			finishJob(j)
			rest(j.droplet, 0)
			m.state = moDone
		}

	case assay.Out, assay.Dsc:
		j := m.jobs[0]
		if arrived(j) {
			finishJob(j)
			remove(j.droplet)
			m.state = moDone
		}

	case assay.Mag:
		j := m.jobs[0]
		if !m.holding && arrived(j) {
			finishJob(j)
			m.holding = true
			m.holdLeft = cm.MO.Hold
			j.droplet.job = nil // detained: holds in place, still actuated
		}
		if m.holding {
			m.holdLeft--
			if m.holdLeft <= 0 {
				rest(j.droplet, 0)
				m.state = moDone
			}
		}

	case assay.Mix:
		r.progressMerge(m, id, outputs, droplets, remove, exec, false)

	case assay.Spt:
		if m.pendingSplit != nil {
			r.trySplit(m, id, 0, exec.Cycles, droplets, exec)
			return
		}
		j0, j1 := m.jobs[0], m.jobs[1]
		if arrived(j0) {
			finishJob(j0)
			j0.droplet.job = nil
		}
		if arrived(j1) {
			finishJob(j1)
			j1.droplet.job = nil
		}
		if j0.done && j1.done {
			rest(j0.droplet, 0)
			rest(j1.droplet, 1)
			m.state = moDone
		}

	case assay.Dlt:
		if m.phase == 0 {
			r.progressMerge(m, id, outputs, droplets, remove, exec, true)
			if m.pendingSplit != nil && r.trySplit(m, id, 2, exec.Cycles, droplets, exec) {
				m.phase = 1
			}
			return
		}
		j2, j3 := m.jobs[2], m.jobs[3]
		if arrived(j2) {
			finishJob(j2)
			j2.droplet.job = nil
		}
		if arrived(j3) {
			finishJob(j3)
			j3.droplet.job = nil
		}
		if j2.done && j3.done {
			rest(j2.droplet, 0)
			rest(j3.droplet, 1)
			m.state = moDone
		}
	}
}

// progressMerge handles the rendezvous of a mix (or a dilution's mix phase):
// once one input droplet sits in the shared goal region and the other is
// adjacent, the two coalesce into the merged droplet. For dilutions the
// merged droplet immediately splits and phase 1 begins.
func (r *Runner) progressMerge(m *moRT, id int, outputs map[outputKey]*dropletRT,
	droplets *[]*dropletRT, remove func(*dropletRT), exec *Execution, isDlt bool) {
	j0, j1 := m.jobs[0], m.jobs[1]
	if m.pendingSplit != nil || (j0.done && j1.done) {
		return // already coalesced; the split (if any) is pending
	}
	d0, d1 := j0.droplet, j1.droplet
	if d0 == nil || d1 == nil {
		return
	}
	in0 := smg.GoalLabel(d0.rect, j0.rj.Goal)
	in1 := smg.GoalLabel(d1.rect, j1.rj.Goal)
	adjacent := d0.rect.Expand(1).Overlaps(d1.rect)
	if !(adjacent && (in0 || in1)) {
		return
	}
	if r.Cfg.Concurrent {
		// The merged rectangle extends past the two source droplets; with
		// foreign droplets routing nearby (impossible under the sequential
		// zone discipline), defer the coalesce until its footprint is clear,
		// mirroring trySplit. After a long wait only true overlap blocks, so
		// two wedged operations cannot starve each other; the sources hold
		// quasi-statically meanwhile, so passers-by route around them.
		margin := r.Cfg.CollisionMargin
		if m.mergeWait > 50 {
			margin = 0
		}
		zone := m.cm.MergedRect.Expand(margin)
		var blocker *dropletRT
		for _, d := range *droplets {
			if d.mo == id {
				continue
			}
			if zone.Overlaps(d.rect) {
				if blocker == nil || (!blocker.quasiStatic() && d.quasiStatic()) {
					blocker = d
				}
			}
		}
		if blocker != nil {
			m.mergeWait++
			if m.mergeWait > 60 {
				// Still wedged past the margin-0 fallback: both parked
				// sources wait on the intruder, so a permanent squatter in
				// the footprint surfaces as a wait-for chain.
				r.cs.waits[d0] = blocker
				r.cs.waits[d1] = blocker
			}
			return
		}
		m.mergeWait = 0
	}
	// Coalesce.
	if !j0.done {
		j0.done = true
		exec.JobsCompleted++
	}
	if !j1.done {
		j1.done = true
		exec.JobsCompleted++
	}
	remove(d0)
	remove(d1)
	merged := &dropletRT{rect: m.cm.MergedRect, mo: id, lastMove: exec.Cycles}
	*droplets = append(*droplets, merged)
	if !isDlt {
		merged.job = nil
		merged.mo = -1
		outputs[outputKey{id, 0}] = merged
		m.state = moDone
		return
	}
	// Dilution: the merged droplet splits (possibly after waiting for the
	// split area to clear) and phase 1 begins.
	m.pendingSplit = merged
}

// rollback implements roll-back error recovery: discard the failed
// operation's droplets and reset every operation needed to regenerate them —
// the transitive closure of (a) producers of a reset operation's inputs and
// (b) consumers of a reset operation's outputs — back to the init state.
// Chip wear is NOT undone: recovery costs extra actuations, which is exactly
// the paper's argument for proactive avoidance. Callers count the event
// (exec.Rollbacks for reactive recovery, exec.SerializedOps for concurrent
// deadlock serialization).
func rollbackClosure(plan *route.Plan, n, failed int) []bool {
	inR := make([]bool, n)
	inR[failed] = true
	for changed := true; changed; {
		changed = false
		for id := 0; id < n; id++ {
			if !inR[id] {
				continue
			}
			for _, slot := range plan.MOs[id].InSlots {
				if !inR[slot[0]] {
					inR[slot[0]] = true
					changed = true
				}
			}
		}
		for id := 0; id < n; id++ {
			if inR[id] {
				continue
			}
			for _, slot := range plan.MOs[id].InSlots {
				if inR[slot[0]] {
					inR[id] = true
					changed = true
					break
				}
			}
		}
	}
	return inR
}

// rollbackCost is the number of already-started operations a rollback of the
// given operation would reset — the work deadlock recovery should minimize
// when choosing its victim.
func rollbackCost(mos []*moRT, plan *route.Plan, failed int) int {
	cost := 0
	for id, in := range rollbackClosure(plan, len(mos), failed) {
		if in && mos[id].state != moInit {
			cost++
		}
	}
	return cost
}

func rollback(mos []*moRT, plan *route.Plan, failed int, outputs map[outputKey]*dropletRT,
	droplets *[]*dropletRT, exec *Execution) {
	inR := rollbackClosure(plan, len(mos), failed)
	// Discard on-chip droplets owned by reset operations.
	var keep []*dropletRT
	for _, d := range *droplets {
		if d.mo >= 0 && inR[d.mo] {
			continue
		}
		keep = append(keep, d)
	}
	// Discard resting outputs produced by reset operations.
	for key, d := range outputs {
		if inR[key.mo] {
			delete(outputs, key)
			for i, q := range keep {
				if q == d {
					keep = append(keep[:i], keep[i+1:]...)
					break
				}
			}
		}
	}
	*droplets = keep
	// Reset runtime state of every operation in the closure.
	for id := range mos {
		if !inR[id] {
			continue
		}
		if mos[id].state != moInit {
			exec.RedoneOps++
		}
		cm := &plan.MOs[id]
		nm := &moRT{cm: cm}
		for j := range cm.Jobs {
			rj := synth.NormalizeDispense(cm.Jobs[j], plan.W, plan.H)
			nm.jobs = append(nm.jobs, &jobRT{rj: rj, mo: id, routable: true})
		}
		mos[id] = nm
	}
}

// zoneHealth returns the mean observed health (in units of the top code)
// over an operation's hazard zones, used by wear-aware activation ordering.
func (r *Runner) zoneHealth(m *moRT) float64 {
	top := float64(int(1)<<uint(r.Chip.HealthBits()) - 1)
	total, cells := 0.0, 0
	for _, j := range m.jobs {
		h := j.rj.Hazard
		for y := h.YA; y <= h.YB; y++ {
			for x := h.XA; x <= h.XB; x++ {
				total += float64(r.Chip.Health(x, y))
				cells++
			}
		}
	}
	if cells == 0 {
		return 1
	}
	return total / (float64(cells) * top)
}
