package serve

import (
	"sync"
	"testing"
	"time"

	"meda/internal/chip"
	"meda/internal/geom"
	"meda/internal/route"
	"meda/internal/sched"
	"meda/internal/synth"
	"meda/pkg/api"
)

// windowLog wraps one chip's adaptive router and records, per Route call,
// the window's raw key (geometry, region health hash and obstacle
// signature) and whether the call ran an online synthesis. It embeds
// *sched.Adaptive and overrides Route alone, so the simulator sees the
// same optional router interfaces it would see on the bare router.
type windowLog struct {
	*sched.Adaptive
	mu          sync.Mutex
	stored      map[windowKey]bool // windows served with a strategy
	synthesized []windowKey        // windows that needed an online synthesis
	obstructed  int                // synthesized windows with obstacles
}

// windowKey is a window's raw cache key, and whether any obstacle came
// with it (one lying wholly outside the window leaves the signature 0).
type windowKey struct {
	sched.CacheKey
	obstructed bool
}

func (w *windowLog) Route(rj route.RJ, c *chip.Chip, obstacles []geom.Rect) (synth.Policy, float64, error) {
	norm := synth.NormalizeDispense(rj, c.W(), c.H())
	key := windowKey{sched.NewCacheKey(norm, w.Opt, c.HealthHash(norm.Hazard)), len(obstacles) > 0}
	key.Obstacles = sched.ObstacleSignature(norm.Hazard, obstacles)
	before := w.Syntheses
	p, v, err := w.Adaptive.Route(rj, c, obstacles)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.Syntheses > before {
		w.synthesized = append(w.synthesized, key)
		if key.obstructed {
			w.obstructed++
		}
	}
	if err == nil && p.Len() > 0 {
		w.stored[key] = true
	}
	return p, v, err
}

// TestFollowerTenantReusesLeaderStrategies: two tenants own congruent
// chips (same seed, same job sequence) and the follower runs each job only
// after the leader has finished it. The follower's executions must equal
// the leader's, and it must synthesize no window the leader was served a
// strategy for, obstructed or not: that strategy is in the fleet-wide
// stores, keyed by the window, its health and its obstacles, and the
// follower's chip reaches the same health and meets the same droplets.
// Evicting entries whenever a chip's health changes breaks this, since the
// leader's wear drops the entries the follower asks for next; so does
// synthesizing obstructed windows without storing them.
func TestFollowerTenantReusesLeaderStrategies(t *testing.T) {
	f, err := NewFleet(Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Bound the shared cache past the whole run, so no entry the follower
	// needs is evicted; chips built below take it up.
	f.cache = sched.NewCache(1 << 14)
	t.Cleanup(func() {
		if err := f.Shutdown(); err != nil {
			t.Error(err)
		}
	})
	events, unsubscribe := f.Subscribe("")
	defer unsubscribe()

	tenants := []string{"leader", "follower"}
	logs := map[string]*windowLog{}
	for _, tenant := range tenants {
		if err := f.CreateTenant(api.TenantSpec{ID: tenant}); err != nil {
			t.Fatal(err)
		}
		if err := f.CreateChip(tenant, api.ChipSpec{ID: "c", Seed: 7}, nil); err != nil {
			t.Fatal(err)
		}
		f.mu.Lock()
		ce, err := f.chipEntry(tenant, "c")
		if err == nil {
			ad, _ := ce.router.(*sched.Adaptive)
			logs[tenant] = &windowLog{Adaptive: ad, stored: map[windowKey]bool{}}
			ce.router = logs[tenant]
		}
		f.mu.Unlock()
		if err != nil || logs[tenant].Adaptive == nil {
			t.Fatalf("%s: no adaptive router to wrap (err %v)", tenant, err)
		}
	}

	run := func(tenant string, spec api.JobSpec) api.Execution {
		t.Helper()
		st, err := f.SubmitJob(tenant, spec)
		if err != nil {
			t.Fatal(err)
		}
		timeout := time.After(2 * time.Minute)
		for {
			select {
			case ev := <-events:
				if ev.Job != st.ID || (ev.Type != api.EvJobDone && ev.Type != api.EvJobFailed) {
					continue
				}
				st, err := f.Job(tenant, st.ID)
				if err != nil || st.State != api.JobDone || st.Result == nil {
					t.Fatalf("%s job %s: %+v, err %v", tenant, st.ID, st, err)
				}
				return *st.Result
			case <-timeout:
				t.Fatalf("%s job %s did not finish", tenant, st.ID)
			}
		}
	}

	benches := []string{"master-mix", "serial-dilution", "cep", "master-mix", "serial-dilution", "cep"}
	for k, bench := range benches {
		spec := api.JobSpec{Chip: "c", Benchmark: bench, Seed: uint64(100 + k)}
		lead := run("leader", spec)
		follow := run("follower", spec)
		if follow != lead {
			t.Fatalf("job %d (%s): follower %+v, leader %+v", k, bench, follow, lead)
		}
	}

	leader, follower := logs["leader"], logs["follower"]
	if len(leader.synthesized) == leader.obstructed || leader.obstructed == 0 {
		t.Fatalf("the leader synthesized %d windows, %d of them obstructed: the run does not share both kinds",
			len(leader.synthesized), leader.obstructed)
	}
	again := 0
	for _, key := range follower.synthesized {
		if leader.stored[key] {
			again++
		}
	}
	if again > 0 {
		t.Errorf("follower re-synthesized %d windows the leader was served (%d follower syntheses in all)",
			again, len(follower.synthesized))
	}
	t.Logf("leader: %d syntheses, %d obstructed; follower: %d, %d cache hits, %d library hits",
		len(leader.synthesized), leader.obstructed, len(follower.synthesized), follower.CacheHits, follower.LibraryUses)
}
