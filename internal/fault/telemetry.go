package fault

import "meda/internal/telemetry"

// Fault-injection telemetry (internal/telemetry default registry).
// fault.cells.* tick once per stuck cell, the first time its activated
// fault is observed by a force or health read; fault.reads.* count
// perturbed reads (a transient dropout or sensor misread may be observed
// several times per operational cycle — these are observation counts, not
// distinct faults). Reads follow the executor's health checks, so they fall
// when it reads less: it re-hashes a job's window only when the chip's
// health stamp has moved, and a window it does not re-read adds no
// fault.reads.* observations. Control-plane injections are counted where
// they take effect, in sched (sched.fault.*).
var (
	telStuckOff  = telemetry.C("fault.cells.stuck_off")
	telStuckOn   = telemetry.C("fault.cells.stuck_on")
	telTransient = telemetry.C("fault.reads.transient")
	telFlip      = telemetry.C("fault.reads.sensor_flip")
	telStale     = telemetry.C("fault.reads.sensor_stale")
)
