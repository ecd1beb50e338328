package sched

import "meda/internal/telemetry"

// Scheduler telemetry (internal/telemetry default registry). The cache
// counters aggregate over every Cache instance in the process; per-instance
// numbers remain available through Cache.Stats. sched.synth.online counts
// strategies synthesized on the routing path.
var (
	telCacheHits      = telemetry.C("sched.cache.hits")
	telCacheMisses    = telemetry.C("sched.cache.misses")
	telCacheEvictions = telemetry.C("sched.cache.evictions")

	// Canonicalization effectiveness: hits served through a D4-canonical
	// key (the per-shape fast path) vs hits on raw per-position keys (the
	// non-uniform-health fallback). Their ratio is how often the degraded
	// window was uniform enough to share strategies across positions.
	telCanonHits = telemetry.C("sched.cache.canonical_hits")
	telRawHits   = telemetry.C("sched.cache.raw_hits")

	telLibHits   = telemetry.C("sched.library.hits")
	telLibMisses = telemetry.C("sched.library.misses")

	telOnlineSyntheses = telemetry.C("sched.synth.online")

	// Fault-injection effects observed by the scheduler (the injection
	// decisions themselves are counted in internal/fault).
	telSynthTimeouts  = telemetry.C("sched.fault.synth_timeouts")
	telCachePoisoned  = telemetry.C("sched.fault.cache_poisoned")
	telFallbackRetry  = telemetry.C("sched.fallback.retries")
	telFallbackRecov  = telemetry.C("sched.fallback.recovered")
	telFallbackFinal  = telemetry.C("sched.fallback.final")
	telFallbackDegrad = telemetry.C("sched.fallback.degraded")
)
