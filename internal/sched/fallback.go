package sched

import (
	"sync"

	"meda/internal/chip"
	"meda/internal/geom"
	"meda/internal/route"
	"meda/internal/synth"
	"meda/internal/telemetry"
)

// DefaultMaxRetries is how many times Fallback re-attempts the primary
// router after a failure before degrading to the final router.
const DefaultMaxRetries = 2

// FallbackStats is a snapshot of the Fallback router's escalation counters.
type FallbackStats struct {
	// Retries counts primary-router re-attempts after a failure.
	Retries int
	// Finals counts routes served by the final router after the primary was
	// exhausted (errors or no strategy).
	Finals int
	// DegradedRoutes counts RouteDegraded calls served directly by the
	// final router.
	DegradedRoutes int
}

// Fallback is the graceful-degradation ladder as a Router: it serves routes
// from Primary (typically the Adaptive router, whose own ladder is library →
// cache → online synthesis), retries the primary up to DefaultMaxRetries
// times on failure — which turns an injected synthesis timeout into a fresh
// draw — and finally degrades to Final (typically the health-blind
// Baseline), which always produces *some* strategy on a connected chip.
// Jobs the simulator has marked degraded skip the primary entirely via
// RouteDegraded. Every escalation is recorded in telemetry
// (sched.fallback.*).
type Fallback struct {
	Primary Router
	Final   Router

	mu             sync.Mutex
	retries        int
	finals         int
	degradedRoutes int
}

// NewFallback wires primary with a final-tier router.
func NewFallback(primary, final Router) *Fallback {
	return &Fallback{Primary: primary, Final: final}
}

// Name implements Router.
func (f *Fallback) Name() string { return f.Primary.Name() + "+fallback" }

// HealthAware implements Router: the ladder is as health-aware as its
// primary tier.
func (f *Fallback) HealthAware() bool { return f.Primary.HealthAware() }

// Route implements Router with bounded retries and final-tier degradation.
func (f *Fallback) Route(rj route.RJ, c *chip.Chip, obstacles []geom.Rect) (synth.Policy, float64, error) {
	for attempt := 0; ; attempt++ {
		p, v, err := f.Primary.Route(rj, c, obstacles)
		if err == nil && p.Len() > 0 {
			if attempt > 0 {
				telFallbackRecov.Inc()
			}
			return p, v, nil
		}
		if err == nil {
			// The primary synthesized successfully and proved no strategy
			// exists under its model (e.g. the health-aware MDP sees the goal
			// as unreachable). Retrying is pointless; the health-blind final
			// tier may still find a physically workable route.
			break
		}
		if attempt >= DefaultMaxRetries {
			break
		}
		f.mu.Lock()
		f.retries++
		f.mu.Unlock()
		telFallbackRetry.Inc()
	}
	sp := telemetry.StartSpan("sched.fallback.final")
	defer sp.End()
	f.mu.Lock()
	f.finals++
	f.mu.Unlock()
	telFallbackFinal.Inc()
	return f.Final.Route(rj, c, obstacles)
}

// RouteDegraded implements DegradedRouter: a job the simulator no longer
// trusts the primary's model for goes straight to the final tier.
func (f *Fallback) RouteDegraded(rj route.RJ, c *chip.Chip, obstacles []geom.Rect) (synth.Policy, float64, error) {
	sp := telemetry.StartSpan("sched.fallback.degraded")
	defer sp.End()
	f.mu.Lock()
	f.degradedRoutes++
	f.mu.Unlock()
	telFallbackDegrad.Inc()
	return f.Final.Route(rj, c, obstacles)
}

// Stats returns a snapshot of the escalation counters.
func (f *Fallback) Stats() FallbackStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FallbackStats{Retries: f.retries, Finals: f.finals, DegradedRoutes: f.degradedRoutes}
}

// SetFaultInjector implements FaultAware by forwarding to the primary tier
// when it is fault-aware; the final tier stays injection-free so the ladder
// always has a working bottom rung.
func (f *Fallback) SetFaultInjector(inj FaultInjector) {
	if fa, ok := f.Primary.(FaultAware); ok {
		fa.SetFaultInjector(inj)
	}
}
