// Concurrent assay execution. The default executor treats every operation's
// hazard zones as exclusive resources (canActivate in sim.go): two operations
// whose zones overlap never run at the same time, which is safe but
// serializes most of a contended assay. The concurrent executor keeps every
// ready operation running at once and moves the safety argument down a
// level: activation only requires goal-site exclusivity, the per-move
// fluidic constraints (constraint.go) keep concurrent droplets separated
// cycle by cycle, reservoir contention is arbitrated by waiting age, and the
// residual failure mode — droplets wedged in a wait-for cycle none of the
// per-droplet escapes (re-route, sidestep) can dissolve — is detected on the
// wait-for graph and recovered by forced serialization: the victim operation
// is rolled back and deferred behind its rivals, exactly as if the scheduler
// had never overlapped them.
package sim

import (
	"sort"

	"meda/internal/assay"
)

const (
	// deadlockPatience is the stall age (cycles since the droplet last
	// moved) before a droplet may be declared part of a deadlock —
	// comfortably past the re-route (blockedStreakLimit) and sidestep (2×)
	// escalations, so the cheap per-droplet escapes get their chance first.
	deadlockPatience = 12
	// chainPatience is the longer stall age at which a droplet wedged
	// behind a quasi-static droplet, with no route around it, is serialized
	// even without a wait-for cycle.
	chainPatience = 3 * deadlockPatience
	// serializeDefer is the timed deferral window of a serialized victim:
	// it may not re-activate until its rivals finish or the window expires.
	serializeDefer = 150
	// widenStep/widenMax bound the adaptive synthesis-window inflation of
	// jobs whose goal is unreachable past foreign droplets (jobRT.widen):
	// each failed re-synthesis widens the window by widenStep cells, up to
	// widenMax, after which only deadlock recovery can dissolve the jam.
	widenStep = 3
	widenMax  = 15
)

// concurrentState is the per-execution bookkeeping of the concurrent
// executor, nil in sequential mode: its methods are safe on a nil receiver,
// where mayActivate admits every ready operation and the rest do nothing.
// Slices are indexed by operation id and survive rollbacks (a rolled-back
// operation keeps its yield count — that is what priority aging means).
type concurrentState struct {
	// waits is this cycle's wait-for graph: waits[d] is the droplet that d
	// could not move because of (collision block, unroutable hazard, or a
	// merge partner d is parked waiting for).
	waits map[*dropletRT]*dropletRT
	// yields[id] counts how many times operation id was the serialization
	// victim; the fewest-yields operation is victimized next, so a repeat
	// loser ages into priority.
	yields []int
	// deferUntil[id] / deferRivals[id] gate a serialized victim's
	// re-activation: not before the cycle deferUntil, unless every rival
	// listed is already done.
	deferUntil  []int
	deferRivals [][]int
	// spawnWait[id] counts consecutive cycles a pending dispense was
	// deferred; the arbiter serves longest-waiting first.
	spawnWait []int
}

func newConcurrentState(n int) *concurrentState {
	return &concurrentState{
		waits:       make(map[*dropletRT]*dropletRT),
		yields:      make([]int, n),
		deferUntil:  make([]int, n),
		deferRivals: make([][]int, n),
		spawnWait:   make([]int, n),
	}
}

func (cs *concurrentState) resetWaits() {
	if cs != nil {
		clear(cs.waits)
	}
}

// wait records that droplet d could not move this cycle because of b (a
// nil b records nothing).
func (cs *concurrentState) wait(d, b *dropletRT) {
	if cs == nil || b == nil {
		return
	}
	cs.waits[d] = b
}

// mayActivate gates a serialized victim's re-activation: not before its
// deferral window expires, unless every recorded rival has finished. A victim
// with no recorded rivals waits out the full window.
func (cs *concurrentState) mayActivate(id, k int, mos []*moRT) bool {
	if cs == nil || k >= cs.deferUntil[id] {
		return true
	}
	if len(cs.deferRivals[id]) == 0 {
		return false
	}
	for _, rid := range cs.deferRivals[id] {
		if mos[rid].state != moDone {
			return false
		}
	}
	return true
}

// observeCycle feeds the per-timestamp concurrency telemetry.
func (cs *concurrentState) observeCycle(droplets int) {
	if cs == nil {
		return
	}
	telConcurrentDroplets.Set(float64(droplets))
	telDropletsPerCycle.Observe(float64(droplets))
}

// arbitrateSpawns is phase 1b: pending dispenses spawn when their entry
// area clears. The sequential executor tries them in id order. The
// concurrent one arbitrates reservoir contention: candidates are served
// longest-waiting first (ties in activation order), so a dispense whose
// shared entry area keeps being claimed by siblings cannot starve behind
// them.
func (s *run) arbitrateSpawns() {
	var pending []int
	for id, m := range s.mos {
		if m.state == moActive && m.cm.MO.Type == assay.Dis && m.jobs[0].droplet == nil {
			pending = append(pending, id)
		}
	}
	cs := s.cs
	if cs == nil {
		for _, id := range pending {
			s.trySpawn(id)
		}
		return
	}
	sort.SliceStable(pending, func(i, j int) bool {
		return cs.spawnWait[pending[i]] > cs.spawnWait[pending[j]]
	})
	for _, id := range pending {
		if s.trySpawn(id) {
			cs.spawnWait[id] = 0
			continue
		}
		cs.spawnWait[id]++
		s.exec.DispenseDeferrals++
		telSpawnDeferrals.Inc()
	}
}

// unroutableBlocker picks the droplet most plausibly wedging an off-policy
// or unroutable job: the first foreign droplet inside the job's hazard
// window, preferring quasi-static ones. Used only to grow the wait-for
// graph; the per-droplet escapes keep working regardless.
func unroutableBlocker(d *dropletRT, droplets []*dropletRT) *dropletRT {
	var fallback *dropletRT
	zone := d.job.rj.Hazard
	for _, q := range droplets {
		if q == d || q.mo == d.mo || !zone.Overlaps(q.rect) {
			continue
		}
		if q.quasiStatic() {
			return q
		}
		if fallback == nil {
			fallback = q
		}
	}
	return fallback
}

// detectDeadlocks inspects this cycle's wait-for graph for droplets that
// have been stalled past patience in a cycle (A waits on B waits on … waits
// on A) or wedged behind a quasi-static droplet with no way around, and
// recovers by serializing a victim. Reports whether a recovery happened
// (at most one per cycle; the graph is recomputed next cycle).
func (s *run) detectDeadlocks() bool {
	cs := s.cs
	// Rendezvous edges: a droplet parked in a merge goal waits for its
	// partner, so a jam wedging the partner behind another operation is
	// detected as the cross-operation cycle it really is.
	for _, m := range s.mos {
		if m.state != moActive {
			continue
		}
		t := m.cm.MO.Type
		if t != assay.Mix && !(t == assay.Dlt && m.phase == 0) {
			continue
		}
		d0, d1 := m.jobs[0].droplet, m.jobs[1].droplet
		if d0 == nil || d1 == nil || (m.jobs[0].done && m.jobs[1].done) {
			continue
		}
		if _, busy := cs.waits[d0]; !busy && d0.quasiStatic() {
			cs.waits[d0] = d1
		}
		if _, busy := cs.waits[d1]; !busy && d1.quasiStatic() {
			cs.waits[d1] = d0
		}
	}

	stuck := func(d *dropletRT) bool {
		return d.mo >= 0 && s.k-d.lastMove >= deadlockPatience
	}
	// Cycle pass: walk the wait-for chain from every stuck droplet; a chain
	// that bites its own tail through stuck droplets only is a deadlock.
	for _, d := range s.droplets {
		if !stuck(d) || cs.waits[d] == nil {
			continue
		}
		seen := map[*dropletRT]int{}
		var chain []*dropletRT
		cur := d
		for cur != nil && stuck(cur) {
			if at, ok := seen[cur]; ok {
				if s.serializeCycle(chain[at:]) {
					return true
				}
				break
			}
			seen[cur] = len(chain)
			chain = append(chain, cur)
			cur = cs.waits[cur]
		}
	}
	// Chain pass: a droplet wedged far past patience behind a quasi-static
	// foreign droplet (a resting output or a detained hold it cannot route
	// around) yields to whatever operation will eventually move the blocker.
	for _, d := range s.droplets {
		b := cs.waits[d]
		if d.mo < 0 || b == nil || s.k-d.lastMove < chainPatience {
			continue
		}
		if b.mo == d.mo || !b.quasiStatic() {
			continue
		}
		var rivals []int
		if b.mo >= 0 {
			rivals = append(rivals, b.mo)
		} else if c := s.consumerOfOutput(b); c >= 0 {
			rivals = append(rivals, c)
		}
		s.recoverDeadlock(d.mo, rivals)
		return true
	}
	return false
}

// serializeCycle resolves one detected wait-for cycle. Among the operations
// owning the cycle's droplets, the one with the fewest prior yields is the
// victim (priority aging: past victims are spared next time); ties go to the
// cheapest rollback (fewest already-started operations reset), then the
// highest id. Reports false when the cycle spans a single operation —
// intra-operation waits are rendezvous choreography, not routing deadlocks.
func (s *run) serializeCycle(cycle []*dropletRT) bool {
	ops := map[int]bool{}
	for _, d := range cycle {
		if d.mo >= 0 {
			ops[d.mo] = true
		}
	}
	if len(ops) < 2 {
		return false
	}
	ids := make([]int, 0, len(ops))
	for id := range ops {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	victim := ids[0]
	vCost := s.rollbackCost(victim)
	for _, id := range ids[1:] {
		cost := s.rollbackCost(id)
		switch yi, yv := s.cs.yields[id], s.cs.yields[victim]; {
		case yi < yv:
			victim, vCost = id, cost
		case yi == yv && cost < vCost:
			victim, vCost = id, cost
		case yi == yv && cost == vCost && id > victim:
			victim, vCost = id, cost
		}
	}
	rivals := make([]int, 0, len(ids)-1)
	for _, id := range ids {
		if id != victim {
			rivals = append(rivals, id)
		}
	}
	s.recoverDeadlock(victim, rivals)
	return true
}

// recoverDeadlock performs the forced serialization: the victim operation
// (and whatever must re-run to regenerate its droplets) is rolled back to
// init and deferred until its rivals finish or the deferral window expires,
// and the rivals' strategies are refreshed now that the jam dissolved.
func (s *run) recoverDeadlock(victim int, rivals []int) {
	cs := s.cs
	s.exec.Deadlocks++
	telDeadlocks.Inc()
	cs.yields[victim]++
	s.rollback(victim)
	s.exec.SerializedOps++
	telSerializedOps.Inc()
	cs.deferUntil[victim] = s.k + serializeDefer
	cs.deferRivals[victim] = rivals
	for _, rid := range rivals {
		for _, j := range s.mos[rid].jobs {
			if !j.done && j.droplet != nil {
				j.obstacleDirty = true
				j.blockedStreak = 0
				j.extraObstacles = nil
			}
		}
	}
}

// consumerOfOutput finds the operation that will eventually claim a resting
// output droplet, or -1 when none exists.
func (s *run) consumerOfOutput(b *dropletRT) int {
	for key, d := range s.outputs {
		if d != b {
			continue
		}
		for id := range s.plan.MOs {
			for _, slot := range s.plan.MOs[id].InSlots {
				if slot[0] == key.mo && slot[1] == key.slot {
					return id
				}
			}
		}
	}
	return -1
}
