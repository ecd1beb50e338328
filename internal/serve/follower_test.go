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

// windowLog wraps one chip's adaptive router and records, per unobstructed
// Route call, the window's raw key (geometry plus region health hash) and
// whether the call ran an online synthesis. It embeds *sched.Adaptive and
// overrides Route alone, so the simulator sees the same optional router
// interfaces it would see on the bare router.
type windowLog struct {
	*sched.Adaptive
	mu          sync.Mutex
	stored      map[sched.CacheKey]bool // windows served with a strategy
	synthesized []sched.CacheKey        // windows that needed an online synthesis
}

func (w *windowLog) Route(rj route.RJ, c *chip.Chip, obstacles []geom.Rect) (synth.Policy, float64, error) {
	if len(obstacles) > 0 {
		return w.Adaptive.Route(rj, c, obstacles)
	}
	norm := synth.NormalizeDispense(rj, c.W(), c.H())
	key := sched.NewCacheKey(norm, w.Opt, c.HealthHash(norm.Hazard))
	before := w.Syntheses
	p, v, err := w.Adaptive.Route(rj, c, obstacles)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.Syntheses > before {
		w.synthesized = append(w.synthesized, key)
	}
	if err == nil && p.Len() > 0 {
		w.stored[key] = true
	}
	return p, v, err
}

// TestFollowerTenantReusesLeaderStrategies: two tenants own congruent
// chips (same seed, same job sequence) and the follower runs each job only
// after the leader has finished it. The follower's executions must equal
// the leader's, and it must synthesize no unobstructed window the leader
// was served a strategy for: that strategy is in the fleet-wide stores,
// keyed by the window and its health, and the follower's chip reaches the
// same health. Evicting entries whenever a chip's health changes breaks
// this, since the leader's wear drops the entries the follower asks for
// next.
func TestFollowerTenantReusesLeaderStrategies(t *testing.T) {
	f, err := NewFleet(Config{MaxConcurrent: 1, CacheSize: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
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
			logs[tenant] = &windowLog{Adaptive: ad, stored: map[sched.CacheKey]bool{}}
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
	if len(leader.synthesized) == 0 {
		t.Fatal("the leader synthesized no unobstructed window: the run shares nothing")
	}
	again := 0
	for _, key := range follower.synthesized {
		if leader.stored[key] {
			again++
		}
	}
	if again > 0 {
		t.Errorf("follower re-synthesized %d unobstructed windows the leader was served (%d follower syntheses in all)",
			again, len(follower.synthesized))
	}
	t.Logf("leader: %d unobstructed syntheses; follower: %d, %d cache hits, %d library hits",
		len(leader.synthesized), len(follower.synthesized), follower.CacheHits, follower.LibraryUses)
}
