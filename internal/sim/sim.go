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
	"math"
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
	return Config{KMax: 1000, MinResynthInterval: 5}
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
// correlation study to record per-cell actuation vectors). The executor
// reuses the patterns slice from cycle to cycle: it is valid only during the
// call, so a hook that keeps it must copy it.
type CycleHook func(k int, patterns []geom.Rect)

// Runner executes bioassays on a biochip. The chip's wear persists across
// executions, modeling device reuse (Sec. VII-B).
type Runner struct {
	Cfg    Config
	Chip   *chip.Chip
	Router sched.Router
	Hook   CycleHook
	src    *randx.Source
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

const (
	// collisionMargin is the minimum separation, in cells, maintained
	// between droplets of different operations.
	collisionMargin = 1
	// resynthDelay models the latency, in cycles, between detecting a
	// health change (or an obstruction) and the asynchronously
	// re-synthesized strategy becoming available (Alg. 3).
	resynthDelay = 2
)

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

// run is the state of one execution: the plan's operations at runtime, the
// droplets on the array, the counters being accumulated, and the concurrent
// executor's bookkeeping (nil in sequential mode). The phase methods of the
// cycle loop and the helpers they call all work on it.
type run struct {
	*Runner
	plan *route.Plan
	mos  []*moRT
	// consumerOf maps a dispense operation to the operation consuming its
	// droplet, for just-in-time dispensing.
	consumerOf []int
	outputs    map[outputKey]*dropletRT
	droplets   []*dropletRT
	exec       Execution
	cs         *concurrentState
	// k is the current cycle; lastProgress is the last cycle a droplet
	// moved, a job or operation finished, or a recovery reset the schedule.
	k            int
	lastProgress int
	// Per-cycle buffers of action selection and motion, reused every cycle.
	patterns []geom.Rect
	intents  []geom.Rect // committed region per droplet
	acts     []action.Action
	moving   []bool
	weights  []float64
}

// execute is the uninstrumented body of Execute: one loop over the numbered
// phases of an operational cycle. The phase order, and the iteration order
// inside each phase, fix every draw from the simulation's random source.
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
	s := r.newRun(plan)
	for s.k = 1; s.k <= r.Cfg.KMax; s.k++ {
		s.exec.Cycles = s.k
		s.activateReady()    // 1. init → active
		s.arbitrateSpawns()  // 1b. pending dispenses
		s.observeDroplets()  //     peak and per-cycle concurrency
		s.enforceDeadlines() // 1c. per-MO deadlines
		s.resynthesize()     // 2. asynchronous re-synthesis
		s.selectActions()    // 3. actions and actuation matrix U
		s.actuate()          // 4. apply U
		s.move()             // 5. sample droplet motion
		s.audit()            // 5b. hazard audit
		s.advance()          // 6. completion checks
		// 6a. Concurrent-mode deadlock detection and recovery: wait-for
		// cycles among droplets stalled past patience are broken by
		// forcibly serializing a victim operation behind its rivals.
		if s.cs != nil && s.detectDeadlocks() {
			s.lastProgress = s.k
		}
		s.recoverErrors() // 6b. reactive error recovery
		s.observeMOs()    // 6c. per-MO telemetry

		// 7. Finished? Otherwise checkpoint periodically: observe progress
		// and honor cooperative aborts (cancellation, controller shutdown).
		// The completion check comes first so a finished execution is never
		// aborted on its final cycle, and the budget's last cycle is left to
		// the final checkpoint below so no cycle is observed twice.
		if s.allDone() {
			s.exec.Success = true
			err := s.checkpoint(s.k, true)
			return s.exec, err
		}
		if s.k < r.Cfg.KMax {
			if err := s.checkpoint(s.k, false); err != nil {
				return s.exec, err
			}
		}
	}
	err := s.checkpoint(r.Cfg.KMax, true)
	return s.exec, err
}

// newRun builds the runtime state of one execution of plan.
func (r *Runner) newRun(plan *route.Plan) *run {
	n := len(plan.MOs)
	s := &run{Runner: r, plan: plan, mos: make([]*moRT, n), consumerOf: make([]int, n),
		outputs: make(map[outputKey]*dropletRT)}
	for i := range plan.MOs {
		s.mos[i] = newMO(plan, i)
		s.consumerOf[i] = -1
	}
	for i := range plan.MOs {
		for _, slot := range plan.MOs[i].InSlots {
			if plan.MOs[slot[0]].MO.Type == assay.Dis {
				s.consumerOf[slot[0]] = i
			}
		}
	}
	if r.Cfg.Concurrent {
		s.cs = newConcurrentState(n)
	}
	r.inferredFaults = nil
	return s
}

// newMO returns operation id of the plan in its initial state.
func newMO(plan *route.Plan, id int) *moRT {
	cm := &plan.MOs[id]
	m := &moRT{cm: cm}
	for j := range cm.Jobs {
		rj := synth.NormalizeDispense(cm.Jobs[j], plan.W, plan.H)
		m.jobs = append(m.jobs, &jobRT{rj: rj, mo: id, routable: true})
	}
	return m
}

// ready reports whether an operation's dependencies are met. Dispense
// operations additionally wait until their consumer's other inputs are done
// (just-in-time dispensing), so reagent droplets do not sit on the array
// blocking unrelated routes.
func (s *run) ready(id int) bool {
	m := s.mos[id]
	if m.state != moInit {
		return false
	}
	for _, pre := range m.cm.MO.Pre {
		if s.mos[pre].state != moDone {
			return false
		}
	}
	if m.cm.MO.Type != assay.Dis {
		return true
	}
	c := s.consumerOf[id]
	if c < 0 {
		return true
	}
	for _, pre := range s.mos[c].cm.MO.Pre {
		if pre == id || s.mos[pre].state == moDone {
			continue
		}
		if s.plan.MOs[pre].MO.Type == assay.Dis {
			continue // sibling dispense: jointly ready
		}
		return false
	}
	return true
}

// claims returns the resting droplets an operation would pick up on
// activation.
func (s *run) claims(id int) map[*dropletRT]bool {
	out := map[*dropletRT]bool{}
	for _, slot := range s.mos[id].cm.InSlots {
		if d, ok := s.outputs[outputKey{slot[0], slot[1]}]; ok {
			out[d] = true
		}
	}
	return out
}

// canActivate is the activation rule. The sequential executor treats hazard
// zones as exclusive resources (their 3-cell safety margin exists "to
// prevent accidental merging"): a new operation's zones must not overlap any
// active operation's zones, nor come within the collision margin of a
// foreign resting droplet. This keeps concurrent routes apart; the collision
// guard, obstacle-aware re-routing, and sidestepping handle whatever still
// meets.
//
// The concurrent executor relaxes this to goal-site exclusivity: a ready
// operation activates unless one of its goal zones conflicts with an active
// operation's goal zone (two droplets steered into overlapping destinations
// could never separate again) or with a foreign resting droplet it does not
// claim (the route could never complete while that droplet rests there).
// Everything short of the goals — crossing corridors, shared hazard windows —
// is left to the per-move fluidic constraints, re-routing, and deadlock
// recovery. Because every resting droplet lies inside some producer's goal
// zone, this rule also maintains the invariant that resting outputs stay
// clear of active goals.
func (s *run) canActivate(id int) bool {
	zone, activeMargin := func(j *jobRT) geom.Rect { return j.rj.Hazard }, 0
	if s.cs != nil {
		zone, activeMargin = func(j *jobRT) geom.Rect { return j.rj.Goal }, collisionMargin
	}
	mine := s.claims(id)
	for _, j := range s.mos[id].jobs {
		for oid, om := range s.mos {
			if oid == id || om.state != moActive {
				continue
			}
			for _, oj := range om.jobs {
				if zoneConflict(zone(j), zone(oj), activeMargin) {
					return false
				}
			}
		}
		for _, d := range s.droplets {
			if d.mo == -1 && !mine[d] && zoneConflict(zone(j), d.rect, collisionMargin) {
				return false
			}
		}
	}
	return true
}

// activateReady is phase 1: activate ready operations (Alg. 3 init →
// active) that pass the activation rule. If the discipline wedges (no active
// work, or no progress for a long stretch), force the lowest ready operation
// through and let the per-droplet fallbacks arbitrate.
func (s *run) activateReady() {
	var readyIDs []int
	anyActive := false
	for id, m := range s.mos {
		if m.state == moActive {
			anyActive = true
		}
		if s.ready(id) && s.cs.mayActivate(id, s.k, s.mos) {
			readyIDs = append(readyIDs, id)
		}
	}
	if s.Cfg.WearAwareActivation && len(readyIDs) > 1 {
		sort.SliceStable(readyIDs, func(i, j int) bool {
			return s.zoneHealth(s.mos[readyIDs[i]]) > s.zoneHealth(s.mos[readyIDs[j]])
		})
	}
	activated := false
	for _, id := range readyIDs {
		if s.canActivate(id) {
			s.activate(id)
			activated = true
			anyActive = true
		}
	}
	if !activated && len(readyIDs) > 0 && (!anyActive || s.k-s.lastProgress > 100) {
		s.activate(readyIDs[0])
		s.lastProgress = s.k
	}
}

// observeDroplets records the droplet count after this cycle's spawns.
func (s *run) observeDroplets() {
	n := len(s.droplets)
	if n > s.exec.PeakDroplets {
		s.exec.PeakDroplets = n
	}
	s.cs.observeCycle(n)
}

// enforceDeadlines is phase 1c: an operation running far past activation is
// degraded — its unfinished jobs are demoted to the router's final tier,
// trading route quality for guaranteed progress.
func (s *run) enforceDeadlines() {
	if s.Cfg.MODeadline <= 0 {
		return
	}
	for _, m := range s.mos {
		if m.state != moActive || m.degraded || s.k-m.activatedAt <= s.Cfg.MODeadline {
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
			s.exec.DegradedJobs++
			telDegradedJobs.Inc()
		}
	}
}

// resynthesize is phase 2, asynchronous re-synthesis (Alg. 3): refresh the
// strategies whose region's health changed or that ran into an obstruction,
// resynthDelay cycles after the trigger.
func (s *run) resynthesize() {
	for _, m := range s.mos {
		if m.state != moActive {
			continue
		}
		for _, j := range m.jobs {
			if j.done || j.droplet == nil {
				continue
			}
			dirty := j.obstacleDirty
			healthDirty := false
			if s.Router.HealthAware() && j.routable && !dirty {
				healthDirty = s.Chip.HealthHash(j.rj.Hazard) != j.hash
				dirty = healthDirty
			}
			if dirty && !j.pending {
				if healthDirty {
					if inv, ok := s.Router.(sched.RegionInvalidator); ok {
						// The job's region covers the degraded cells that
						// triggered the refresh: evict overlapping
						// strategies eagerly.
						inv.InvalidateRegion(j.rj.Hazard)
					}
				}
				j.pending = true
				if s.k+resynthDelay > j.nextTry {
					j.nextTry = s.k + resynthDelay
				}
			}
			if j.pending && s.k >= j.nextTry {
				s.fetch(j)
				s.exec.Resyntheses++
			}
		}
	}
}

// selectActions is phase 3: select each droplet's action and build the
// actuation matrix U, one pattern per droplet.
func (s *run) selectActions() {
	s.cs.resetWaits()
	n := len(s.droplets)
	if cap(s.intents) < n {
		s.intents = make([]geom.Rect, n)
		s.acts = make([]action.Action, n)
		s.moving = make([]bool, n)
	}
	s.patterns = s.patterns[:0]
	s.intents, s.acts, s.moving = s.intents[:n], s.acts[:n], s.moving[:n]
	for i, d := range s.droplets {
		s.intents[i] = d.rect // default: hold in place
		s.moving[i] = false
		s.patterns = append(s.patterns, s.selectAction(i, d))
	}
}

// selectAction picks droplet i's action and returns the pattern it
// actuates: the target of a committed move (recorded in intents, acts and
// moving), or the droplet's own rectangle when it holds in place.
func (s *run) selectAction(i int, d *dropletRT) geom.Rect {
	commit := func(a action.Action, target geom.Rect) geom.Rect {
		s.intents[i] = target.Union(d.rect)
		s.acts[i] = a
		s.moving[i] = true
		return target
	}
	if d.job == nil || d.job.done || smg.GoalLabel(d.rect, d.job.rj.Goal) {
		// Resting, detained, or arrived: wait for the operation-level
		// condition (merge rendezvous, phase change) to pick it up.
		return d.rect
	}
	a, ok := d.job.policy[d.rect]
	if !ok {
		// Off-policy position or unroutable region: keep probing for a way
		// out as health/obstacles evolve.
		s.exec.Stalls++
		d.job.obstacleDirty = true
		s.noteDivergence(d)
		s.cs.wait(d, unroutableBlocker(d, s.droplets))
		return d.rect
	}
	target := a.Apply(d.rect)
	blocker := s.blockedBy(d, target, s.droplets, s.intents, i)
	if blocker == nil {
		d.job.blockedStreak = 0
		return commit(a, target)
	}
	s.exec.Stalls++
	d.job.blockedStreak++
	s.cs.wait(d, blocker)
	if blocker.quasiStatic() {
		d.job.obstacleDirty = true
	} else if d.job.blockedStreak >= blockedStreakLimit {
		// Two moving droplets wedged head-on: re-route around the other
		// one as if it were parked.
		d.job.obstacleDirty = true
		d.job.extraObstacles = append(d.job.extraObstacles,
			blocker.rect.Expand(collisionMargin))
	}
	if d.job.blockedStreak >= 2*blockedStreakLimit {
		// Re-routing has not helped; physically sidestep to dissolve
		// multi-droplet knots.
		if alt, nt, ok := s.sidestep(d, s.droplets, s.intents, i); ok {
			return commit(alt, nt)
		}
	}
	return d.rect
}

// actuate is phase 4: apply U, wearing the actuated microelectrodes (player
// ②'s move).
func (s *run) actuate() {
	s.Chip.Actuate(s.patterns...)
	if s.Hook != nil {
		s.Hook(s.k, s.patterns)
	}
}

// move is phase 5: sample each moving droplet's next position from the true
// outcome distribution.
func (s *run) move() {
	for i, d := range s.droplets {
		if !s.moving[i] {
			continue
		}
		outs := action.Outcomes(d.rect, s.acts[i], s.Chip.TrueForceField())
		s.weights = s.weights[:0]
		for _, o := range outs {
			s.weights = append(s.weights, o.P)
		}
		next := outs[s.src.Choose(s.weights)].Droplet
		if next != d.rect {
			s.lastProgress = s.k
			d.lastMove = s.k
			if d.job != nil {
				d.job.divergence = 0
			}
		} else {
			// The chip was commanded to move the droplet and it stayed put —
			// physical divergence from the plan (a stuck-off region produces
			// exactly this signature).
			s.noteDivergence(d)
		}
		d.rect = next
	}
}

// audit is phase 5b (when CheckHazards is set): after this cycle's motion no
// droplet may sit off-array and no two droplets of different operations may
// overlap (accidental merging — the violation the 3-cell hazard margin
// exists to prevent).
func (s *run) audit() {
	if s.Cfg.CheckHazards {
		s.exec.HazardViolations += s.auditHazards(s.droplets)
	}
}

// advance is phase 6, the completion checks: job arrivals, merges, holds,
// splits, exits.
func (s *run) advance() {
	prevJobs, prevDroplets := s.exec.JobsCompleted, len(s.droplets)
	for id, m := range s.mos {
		if m.state == moActive {
			s.progress(m, id)
		}
	}
	if s.exec.JobsCompleted > prevJobs || len(s.droplets) != prevDroplets {
		s.lastProgress = s.k
	}
}

// recoverErrors is phase 6b, reactive error recovery (when enabled), in the
// paper's two tiers (Sec. II-C). Retrial: a droplet stalled for half the
// threshold has its suspected dead region blacklisted and its route
// re-planned. Roll-back: a droplet still stuck at the full threshold fails
// its operation; the operation and everything needed to regenerate its
// droplets are re-executed.
func (s *run) recoverErrors() {
	rc := s.Cfg.Recovery
	if !rc.Enabled {
		return
	}
	failed := -1
	for id, m := range s.mos {
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
			stalled := s.k - d.lastMove
			if stalled > rc.StallThreshold {
				if failed < 0 && s.exec.Rollbacks < rc.MaxRollbacks {
					failed = id
				}
				continue
			}
			if stalled > rc.StallThreshold/2 && j.routable {
				// Retrial: blacklist the unreachable next step and
				// re-route this job around it.
				if a, ok := j.policy[d.rect]; ok {
					if s.inferFault(a.Apply(d.rect)) {
						j.obstacleDirty = true
					}
				}
			}
		}
	}
	if failed >= 0 {
		s.inferFaults(s.mos[failed], s.k)
		s.rollback(failed)
		s.exec.Rollbacks++
		s.lastProgress = s.k
	}
}

// observeMOs is phase 6c: observe each operation's activation→done cycle
// count the cycle it completes.
func (s *run) observeMOs() {
	for _, m := range s.mos {
		if m.state == moDone && !m.recorded {
			m.recorded = true
			telMOCycles.Observe(float64(s.k - m.activatedAt))
		}
	}
}

// allDone reports whether every operation has completed.
func (s *run) allDone() bool {
	for _, m := range s.mos {
		if m.state != moDone {
			return false
		}
	}
	return true
}

// remove takes a droplet off the array.
func (s *run) remove(d *dropletRT) {
	for i, q := range s.droplets {
		if q == d {
			s.droplets = append(s.droplets[:i], s.droplets[i+1:]...)
			return
		}
	}
}

// obstaclesFor returns the margin-expanded rectangles of quasi-static
// droplets foreign to the given operation — the regions a new strategy must
// route around — plus any fault regions the reactive recovery controller has
// inferred from earlier stalls.
func (s *run) obstaclesFor(moID int) []geom.Rect {
	var out []geom.Rect
	for _, d := range s.droplets {
		if d.mo == moID {
			continue
		}
		if d.quasiStatic() {
			out = append(out, d.rect.Expand(collisionMargin))
		}
	}
	out = append(out, s.inferredFaults...)
	return out
}

// noteDivergence records one planned-vs-observed mismatch for the droplet's
// job. Every DivergenceLimit observations the runner escalates: the step the
// plan keeps failing on is blacklisted (feeding obstaclesFor, like the
// reactive-recovery retrial tier) and the job re-routes; at twice the limit
// the job is degraded to the router's final tier — the bottom rung of the
// graceful-degradation ladder.
func (s *run) noteDivergence(d *dropletRT) {
	lim := s.Cfg.DivergenceLimit
	j := d.job
	if lim <= 0 || j == nil || j.done {
		return
	}
	j.divergence++
	if j.divergence%lim != 0 {
		return
	}
	s.exec.Divergences++
	telDivergences.Inc()
	if a, ok := j.policy[d.rect]; ok {
		// The plan keeps commanding this step and the droplet keeps not
		// arriving: treat the target region as physically suspect whether
		// or not the health sensor agrees (it may be lying).
		s.inferFault(a.Apply(d.rect))
	}
	j.obstacleDirty = true
	if j.divergence >= 2*lim && !j.degraded {
		j.degraded = true
		s.exec.DegradedJobs++
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
		}
		for _, q := range droplets[i+1:] {
			if d.mo >= 0 && d.mo == q.mo {
				continue
			}
			if d.rect.Overlaps(q.rect) {
				violations++
				telHazardViolate.Inc()
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
func (s *run) activate(id int) {
	m := s.mos[id]
	m.state = moActive
	m.activatedAt = s.k
	cm := m.cm
	claim := func(j int) *dropletRT {
		key := outputKey{cm.InSlots[j][0], cm.InSlots[j][1]}
		d := s.outputs[key]
		delete(s.outputs, key)
		if d != nil {
			d.lastMove = s.k
		}
		return d
	}
	switch cm.MO.Type {
	case assay.Dis:
		// Droplet spawns in phase 1b once the entry area is clear.
		s.fetch(m.jobs[0])

	case assay.Out, assay.Dsc, assay.Mag, assay.Mix, assay.Dlt:
		// Each input routes onward: a transport's one droplet, or the two
		// droplets a mix (a dilution's phase 0) brings to the mix site.
		for j := range cm.InSlots {
			d := claim(j)
			d.mo = id
			d.job = m.jobs[j]
			m.jobs[j].droplet = d
			s.fetch(m.jobs[j])
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

// footprintBlocked reports whether a droplet foreign to operation id lies
// within the collision margin of the footprint a split or merge of that
// operation would materialize, counting deferred cycles in *wait. After 50
// deferred cycles the margin requirement is dropped (wedged against an
// adjacent droplet: only true overlap blocks), so two wedged operations
// cannot starve each other; past 60 the waiters record a wait-for edge on the
// blocker, since two adjacent footprints can block each other even at margin
// 0, a wait-for cycle only deadlock recovery resolves. The blocker reported
// is the first one found, preferring quasi-static droplets.
func (s *run) footprintBlocked(footprint geom.Rect, id int, wait *int, waiters ...*dropletRT) bool {
	margin := collisionMargin
	if *wait > 50 {
		margin = 0
	}
	zone := footprint.Expand(margin)
	var blocker *dropletRT
	for _, d := range s.droplets {
		if d.mo == id || !zone.Overlaps(d.rect) {
			continue
		}
		if blocker == nil || (!blocker.quasiStatic() && d.quasiStatic()) {
			blocker = d
		}
	}
	if blocker == nil {
		*wait = 0
		return false
	}
	*wait++
	if *wait > 60 {
		for _, d := range waiters {
			s.cs.wait(d, blocker)
		}
	}
	return true
}

// trySplit replaces a pending parent/merged droplet with its two halves at
// the jobs' start rectangles, provided no foreign droplet is within the
// collision margin of the split area. Returns true when the split happened.
func (s *run) trySplit(m *moRT, id, jlo int) bool {
	area := m.jobs[jlo].rj.Start.Union(m.jobs[jlo+1].rj.Start)
	if s.footprintBlocked(area, id, &m.splitWait, m.pendingSplit) {
		return false
	}
	s.remove(m.pendingSplit)
	m.pendingSplit = nil
	for j := jlo; j < jlo+2; j++ {
		half := &dropletRT{rect: m.jobs[j].rj.Start, mo: id, job: m.jobs[j], lastMove: s.k}
		m.jobs[j].droplet = half
		s.droplets = append(s.droplets, half)
		s.fetch(m.jobs[j])
	}
	return true
}

// trySpawn places a dispense droplet at its entry rectangle when the area is
// clear of other droplets, and reports whether it did.
func (s *run) trySpawn(id int) bool {
	j := s.mos[id].jobs[0]
	entry := j.rj.Start.Expand(collisionMargin)
	for _, d := range s.droplets {
		if entry.Overlaps(d.rect) {
			return false
		}
	}
	d := &dropletRT{rect: j.rj.Start, mo: id, job: j, lastMove: s.k}
	j.droplet = d
	s.droplets = append(s.droplets, d)
	return true
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
		c := cand{a: a, t: t, dist: math.Abs(cx-gx) + math.Abs(cy-gy)}
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

// fetch obtains a job's strategy from the router, routing around the
// current quasi-static droplets (and any droplets the job was recently
// wedged against).
func (s *run) fetch(j *jobRT) {
	obstacles := append(s.obstaclesFor(j.mo), j.extraObstacles...)
	rj := j.rj
	if j.droplet != nil {
		// Strategies are re-synthesized from wherever the droplet is
		// now; the current position is exempt from obstacle pruning so
		// the droplet can always step out of a freshly blocked margin.
		rj.Start = j.droplet.rect
		rj.Dispense = false
	}
	if j.widen > 0 {
		b := s.Chip.Bounds()
		rj.Hazard = rj.Hazard.Expand(j.widen).Clamp(b.Width(), b.Height())
	}
	var policy synth.Policy
	var err error
	if dr, ok := s.Router.(sched.DegradedRouter); ok && j.degraded {
		// A degraded job skips the primary router entirely: its model has
		// repeatedly failed to predict this droplet's motion.
		policy, _, err = dr.RouteDegraded(rj, s.Chip, obstacles)
	} else {
		policy, _, err = s.Router.Route(rj, s.Chip, obstacles)
	}
	j.hash = s.Chip.HealthHash(j.rj.Hazard)
	j.nextTry = s.k + s.Cfg.MinResynthInterval
	j.pending = false
	j.obstacleDirty = false
	j.extraObstacles = nil
	j.blockedStreak = 0
	if err != nil || len(policy) == 0 {
		// No strategy exists (e.g. dead or fully obstructed region): the
		// droplet holds; re-routes keep probing as conditions change,
		// and the execution runs down the clock if none appears —
		// matching the paper's "droplet stuck at faulty
		// microelectrodes" failure mode. In concurrent mode an
		// obstruction by foreign droplets additionally widens the next
		// synthesis window, so head-on meetings in open space dissolve
		// by detouring instead of wedging until deadlock recovery.
		if s.cs != nil && len(obstacles) > 0 && j.widen < widenMax {
			j.widen += widenStep
		}
		j.policy = nil
		j.routable = false
		return
	}
	j.policy = policy
	j.routable = true
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
		if zoneConflict(target, region, collisionMargin) {
			return other
		}
	}
	return nil
}

// progress advances an active operation after this cycle's movement:
// arrivals, merges, holds, splits, exits, and the done transition.
func (s *run) progress(m *moRT, id int) {
	cm := m.cm
	arrived := func(j *jobRT) bool {
		return j.droplet != nil && smg.GoalLabel(j.droplet.rect, j.rj.Goal)
	}
	// halves finishes split halves jlo and jlo+1 as each arrives; once both
	// have, they rest as the operation's outputs 0 and 1.
	halves := func(jlo int) {
		a, b := m.jobs[jlo], m.jobs[jlo+1]
		if arrived(a) {
			s.finishJob(a)
			a.droplet.job = nil
		}
		if arrived(b) {
			s.finishJob(b)
			b.droplet.job = nil
		}
		if a.done && b.done {
			s.rest(a.droplet, id, 0)
			s.rest(b.droplet, id, 1)
			m.state = moDone
		}
	}

	switch cm.MO.Type {
	case assay.Dis:
		j := m.jobs[0]
		if arrived(j) {
			s.finishJob(j)
			s.rest(j.droplet, id, 0)
			m.state = moDone
		}

	case assay.Out, assay.Dsc:
		j := m.jobs[0]
		if arrived(j) {
			s.finishJob(j)
			s.remove(j.droplet)
			m.state = moDone
		}

	case assay.Mag:
		j := m.jobs[0]
		if !m.holding && arrived(j) {
			s.finishJob(j)
			m.holding = true
			m.holdLeft = cm.MO.Hold
			j.droplet.job = nil // detained: holds in place, still actuated
		}
		if m.holding {
			m.holdLeft--
			if m.holdLeft <= 0 {
				s.rest(j.droplet, id, 0)
				m.state = moDone
			}
		}

	case assay.Mix:
		s.progressMerge(m, id, false)

	case assay.Spt:
		if m.pendingSplit != nil {
			s.trySplit(m, id, 0)
			return
		}
		halves(0)

	case assay.Dlt:
		if m.phase == 0 {
			s.progressMerge(m, id, true)
			if m.pendingSplit != nil && s.trySplit(m, id, 2) {
				m.phase = 1
			}
			return
		}
		halves(2)
	}
}

// finishJob marks a routing job done, counting it once.
func (s *run) finishJob(j *jobRT) {
	if !j.done {
		j.done = true
		s.exec.JobsCompleted++
	}
}

// rest leaves droplet d on the array as output slot of operation id,
// awaiting its consumer.
func (s *run) rest(d *dropletRT, id, slot int) {
	d.job = nil
	d.mo = -1
	s.outputs[outputKey{id, slot}] = d
}

// progressMerge handles the rendezvous of a mix (or a dilution's mix phase):
// once one input droplet sits in the shared goal region and the other is
// adjacent, the two coalesce into the merged droplet. For dilutions the
// merged droplet immediately splits and phase 1 begins.
func (s *run) progressMerge(m *moRT, id int, isDlt bool) {
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
	// The merged rectangle extends past the two source droplets; with
	// foreign droplets routing nearby (impossible under the sequential zone
	// discipline), the concurrent executor defers the coalesce until its
	// footprint is clear, as trySplit does. The sources hold quasi-statically
	// meanwhile, so passers-by route around them, and a permanent squatter
	// in the footprint surfaces as a wait-for chain from both.
	if s.cs != nil && s.footprintBlocked(m.cm.MergedRect, id, &m.mergeWait, d0, d1) {
		return
	}
	// Coalesce.
	s.finishJob(j0)
	s.finishJob(j1)
	s.remove(d0)
	s.remove(d1)
	merged := &dropletRT{rect: m.cm.MergedRect, mo: id, lastMove: s.k}
	s.droplets = append(s.droplets, merged)
	if !isDlt {
		s.rest(merged, id, 0)
		m.state = moDone
		return
	}
	// Dilution: the merged droplet splits (possibly after waiting for the
	// split area to clear) and phase 1 begins.
	m.pendingSplit = merged
}

// rollbackClosure returns the operations a rollback of the failed one
// resets: the transitive closure of (a) producers of a reset operation's
// inputs and (b) consumers of a reset operation's outputs.
func (s *run) rollbackClosure(failed int) []bool {
	n := len(s.mos)
	inR := make([]bool, n)
	inR[failed] = true
	for changed := true; changed; {
		changed = false
		for id := 0; id < n; id++ {
			if !inR[id] {
				continue
			}
			for _, slot := range s.plan.MOs[id].InSlots {
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
			for _, slot := range s.plan.MOs[id].InSlots {
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
func (s *run) rollbackCost(failed int) int {
	cost := 0
	for id, in := range s.rollbackClosure(failed) {
		if in && s.mos[id].state != moInit {
			cost++
		}
	}
	return cost
}

// rollback implements roll-back error recovery: discard the failed
// operation's droplets and reset every operation needed to regenerate them
// (rollbackClosure) back to the init state. Chip wear is NOT undone:
// recovery costs extra actuations, which is exactly the paper's argument for
// proactive avoidance. Callers count the event (exec.Rollbacks for reactive
// recovery, exec.SerializedOps for concurrent deadlock serialization).
func (s *run) rollback(failed int) {
	inR := s.rollbackClosure(failed)
	// Discard on-chip droplets owned by reset operations.
	var keep []*dropletRT
	for _, d := range s.droplets {
		if d.mo >= 0 && inR[d.mo] {
			continue
		}
		keep = append(keep, d)
	}
	s.droplets = keep
	// Discard resting outputs produced by reset operations.
	for key, d := range s.outputs {
		if inR[key.mo] {
			delete(s.outputs, key)
			s.remove(d)
		}
	}
	// Reset runtime state of every operation in the closure.
	for id, in := range inR {
		if !in {
			continue
		}
		if s.mos[id].state != moInit {
			s.exec.RedoneOps++
		}
		s.mos[id] = newMO(s.plan, id)
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
