// Package api defines the wire types of the medad fleet service: requests,
// responses, and streamed events shared by the server (internal/serve) and
// the Go SDK (pkg/client). The package is dependency-free on purpose — it
// pins the JSON contract without dragging the simulation stack into SDK
// consumers.
package api

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// TenantSpec creates a tenant.
type TenantSpec struct {
	ID string `json:"id"`
}

// Tenant summarizes one tenant.
type Tenant struct {
	ID    string `json:"id"`
	Chips int    `json:"chips"`
	Jobs  int    `json:"jobs"`
}

// ChipSpec registers a simulated biochip under a tenant. The zero W/H pick
// the service default geometry. Soft-fault injection (InjectRate > 0) is
// seeded per chip: replays of the same chip make identical fault decisions
// while distinct chips draw independently.
type ChipSpec struct {
	ID string `json:"id"`
	// Seed drives the chip's degradation-parameter sampling and every
	// execution-independent stochastic choice tied to this chip.
	Seed uint64 `json:"seed"`
	W    int    `json:"w,omitempty"`
	H    int    `json:"h,omitempty"`
	// HardFaults selects latent hard-fault injection: "", "none",
	// "uniform", or "clustered"; FaultFraction is the faulty fraction.
	HardFaults    string  `json:"hard_faults,omitempty"`
	FaultFraction float64 `json:"fault_fraction,omitempty"`
	// InjectRate enables soft-fault injection (actuation/sensing/control)
	// at the given rate for every job on this chip, with the graceful-
	// degradation router ladder engaged. InjectSeed 0 means Seed.
	InjectRate  float64 `json:"inject_rate,omitempty"`
	InjectKinds string  `json:"inject_kinds,omitempty"`
	InjectSeed  uint64  `json:"inject_seed,omitempty"`
}

// ChipStatus reports a chip's specification and current condition. Health
// numbers are sampled at job boundaries and checkpoints — they lag a live
// execution by at most the checkpoint interval.
type ChipStatus struct {
	Tenant     string   `json:"tenant"`
	Spec       ChipSpec `json:"spec"`
	QueuedJobs int      `json:"queued_jobs"`
	RunningJob string   `json:"running_job,omitempty"`
	JobsDone   int      `json:"jobs_done"`
	// MinHealth is the lowest observed health code on the array (top code =
	// fully healthy); MeanHealth is the mean code in thousandths.
	MinHealth       int `json:"min_health"`
	MeanHealthMilli int `json:"mean_health_milli"`
	Actuations      int `json:"actuations"`
}

// JobSpec submits one bioassay execution. Exactly one of Benchmark (a named
// benchmark, e.g. "serial-dilution") or Assay (an inline assay-DSL program)
// must be set.
type JobSpec struct {
	Chip       string `json:"chip"`
	Benchmark  string `json:"benchmark,omitempty"`
	Assay      string `json:"assay,omitempty"`
	Area       int    `json:"area,omitempty"` // dispensed droplet area, default 16
	Seed       uint64 `json:"seed"`
	KMax       int    `json:"kmax,omitempty"` // cycle budget, default 1000
	Concurrent bool   `json:"concurrent,omitempty"`
}

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Execution mirrors the simulator's per-execution outcome on the wire.
type Execution struct {
	Success           bool `json:"success"`
	Cycles            int  `json:"cycles"`
	Stalls            int  `json:"stalls"`
	Resyntheses       int  `json:"resyntheses"`
	JobsCompleted     int  `json:"jobs_completed"`
	Rollbacks         int  `json:"rollbacks"`
	RedoneOps         int  `json:"redone_ops"`
	Divergences       int  `json:"divergences"`
	DegradedJobs      int  `json:"degraded_jobs"`
	HazardViolations  int  `json:"hazard_violations"`
	Deadlocks         int  `json:"deadlocks"`
	SerializedOps     int  `json:"serialized_ops"`
	DispenseDeferrals int  `json:"dispense_deferrals"`
	PeakDroplets      int  `json:"peak_droplets"`
}

// Progress is the latest checkpoint of a running job.
type Progress struct {
	Cycle         int    `json:"cycle"`
	JobsCompleted int    `json:"jobs_completed"`
	Droplets      int    `json:"droplets"`
	Digest        string `json:"digest"` // hex checkpoint digest, for resume verification
}

// JobStatus reports a job's state and, when finished, its result.
type JobStatus struct {
	ID       string     `json:"id"`
	Tenant   string     `json:"tenant"`
	Spec     JobSpec    `json:"spec"`
	State    JobState   `json:"state"`
	Result   *Execution `json:"result,omitempty"`
	Error    string     `json:"error,omitempty"`
	Progress *Progress  `json:"progress,omitempty"`
	// Resumed marks a job re-queued by a controller restart: its execution
	// replays deterministically from the journaled chip state.
	Resumed bool `json:"resumed,omitempty"`
}

// Event is one record of the streaming/webhook feed.
type Event struct {
	Seq    int64           `json:"seq"`
	Type   string          `json:"type"`
	Tenant string          `json:"tenant,omitempty"`
	Chip   string          `json:"chip,omitempty"`
	Job    string          `json:"job,omitempty"`
	Data   json.RawMessage `json:"data,omitempty"`
}

// Event types published by the fleet service.
const (
	EvTenantCreated  = "tenant.created"
	EvChipCreated    = "chip.created"
	EvChipHealth     = "chip.health_uploaded"
	EvChipDegraded   = "chip.degraded"
	EvJobQueued      = "job.queued"
	EvJobStarted     = "job.started"
	EvJobProgress    = "job.progress"
	EvJobDone        = "job.done"
	EvJobFailed      = "job.failed"
	EvJobCanceled    = "job.canceled"
	EvJobDegraded    = "job.degraded"    // routing jobs demoted to the final-tier router
	EvJobDeadlock    = "job.deadlock"    // concurrent-executor deadlock recovery fired
	EvJobDivergence  = "job.divergence"  // divergence escalation (suspect region blacklisted)
	EvJobHazard      = "job.hazard"      // post-motion hazard audit violation
	EvServerShutdown = "server.shutdown" // graceful shutdown initiated
)

// DegradationEvents are the event types a webhook with no explicit filter
// receives: the fault-escalation feed (degradation, deadlock recovery,
// divergence escalation, hazard violations, failed jobs).
var DegradationEvents = []string{
	EvChipDegraded, EvJobDegraded, EvJobDeadlock, EvJobDivergence, EvJobHazard, EvJobFailed,
}

// WebhookSpec registers a webhook: every published event whose type is in
// Events (default: DegradationEvents) is POSTed to URL as JSON.
type WebhookSpec struct {
	URL    string   `json:"url"`
	Events []string `json:"events,omitempty"`
}

// Health is the /healthz body.
type Health struct {
	OK          bool `json:"ok"`
	Tenants     int  `json:"tenants"`
	Chips       int  `json:"chips"`
	JobsQueued  int  `json:"jobs_queued"`
	JobsRunning int  `json:"jobs_running"`
	JobsDone    int  `json:"jobs_done"`
	// ResumedJobs counts jobs re-queued by the last restart's journal
	// replay.
	ResumedJobs int `json:"resumed_jobs,omitempty"`
}

// Error is the JSON error envelope of non-2xx responses.
type Error struct {
	Message string `json:"error"`
}

var idRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ValidateID checks a tenant/chip identifier: 1–64 characters drawn from
// letters, digits, dot, underscore and dash, not starting with punctuation.
func ValidateID(kind, id string) error {
	if !idRE.MatchString(id) {
		return fmt.Errorf("invalid %s id %q (want [a-zA-Z0-9][a-zA-Z0-9._-]{0,63})", kind, id)
	}
	return nil
}

// Validate checks a job spec's static constraints (the server re-validates
// against live state: chip existence, benchmark name, DSL parse).
func (s JobSpec) Validate() error {
	if s.Chip == "" {
		return fmt.Errorf("job spec: chip is required")
	}
	if (s.Benchmark == "") == (s.Assay == "") {
		return fmt.Errorf("job spec: exactly one of benchmark or assay is required")
	}
	if s.Area < 0 || s.KMax < 0 {
		return fmt.Errorf("job spec: area and kmax must be non-negative")
	}
	return nil
}
