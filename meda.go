// Package meda is an open-source implementation of "Formal Synthesis of
// Adaptive Droplet Routing for MEDA Biochips" (Elfar, Liang, Chakrabarty,
// Pajic — DATE 2021): health-aware droplet routing for micro-electrode-dot-
// array digital microfluidic biochips.
//
// The package is a facade over the full stack:
//
//   - a microelectrode degradation model with b-bit health sensing
//     (internal/degrade, internal/circuit),
//   - the stochastic-game droplet actuation model — 20 microfluidic actions
//     with frontier-set success probabilities (internal/action,
//     internal/smg),
//   - an explicit-state probabilistic model checker for the Pmax/Rmin
//     routing queries (internal/mdp, internal/spec),
//   - the routing-job compiler (MO → RJ, Alg. 1), the strategy synthesizer
//     (Alg. 2), the hybrid scheduler with its offline strategy library
//     (Alg. 3), and the shortest-path baseline (internal/route,
//     internal/synth, internal/sched, internal/baseline),
//   - a cycle-accurate MEDA biochip simulator with fault injection
//     (internal/sim), and
//   - drivers regenerating every table and figure of the paper's
//     evaluation (internal/exp).
//
// # Quick start
//
//	src := meda.NewSource(2021)
//	chip, _ := meda.NewChip(meda.DefaultChipConfig(), src.Split("chip"))
//	plan, _ := meda.CompileBenchmark(meda.SerialDilution, meda.DefaultChipConfig(), 16)
//	runner := meda.NewRunner(meda.DefaultSimConfig(), chip, meda.NewAdaptiveRouter(), src.Split("sim"))
//	exec, _ := runner.Execute(plan)
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// paper-to-code map.
package meda

import (
	"io"

	"meda/internal/action"
	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/dsl"
	"meda/internal/fault"
	"meda/internal/geom"
	"meda/internal/plan"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
	"meda/internal/sim"
	"meda/internal/smg"
	"meda/internal/spec"
	"meda/internal/synth"
)

// Geometry.
type (
	// Rect is a rectangle of microelectrode cells; droplets, goals and
	// hazard bounds are all Rects (the paper's δ tuples).
	Rect = geom.Rect
	// Cell is a single microelectrode coordinate (1-based).
	Cell = geom.Cell
)

// Droplet actuation.
type (
	// Action is one of the 20 microfluidic actions of Sec. V-B.
	Action = action.Action
	// Outcome is one probabilistic result of an action.
	Outcome = action.Outcome
)

// Biochip.
type (
	// Chip is the simulated MEDA biochip with per-microelectrode
	// degradation state.
	Chip = chip.Chip
	// ChipConfig configures chip dimensions, health-sensing bits,
	// degradation constants and fault injection.
	ChipConfig = chip.Config
	// DegradationParams are the per-microelectrode constants (τ, c).
	DegradationParams = degrade.Params
	// FaultPlan configures hard-fault injection (uniform or clustered).
	FaultPlan = degrade.FaultPlan
	// InjectionPlan configures soft-fault injection (internal/fault):
	// stuck/transient microelectrodes, sensor misreads, and control-plane
	// faults, all deterministic in the plan seed.
	InjectionPlan = fault.Plan
	// FaultKinds selects soft-fault classes for MixedFaultPlan.
	FaultKinds = fault.Kinds
)

// Bioassays and routing jobs.
type (
	// Assay is a bioassay sequencing graph.
	Assay = assay.Assay
	// AssayGraph is a location-free sequencing graph, the planner's input
	// (parse one from text with ParseAssay, or build it programmatically).
	AssayGraph = plan.Graph
	// Benchmark identifies one of the generated benchmark protocols.
	Benchmark = assay.Benchmark
	// Layout places reservoirs, ports and modules on a chip.
	Layout = assay.Layout
	// RoutingJob is a single-droplet routing problem (δs, δg, δh).
	RoutingJob = route.RJ
	// Plan is a compiled bioassay: operations with droplet geometry and
	// routing jobs.
	Plan = route.Plan
)

// Synthesis and scheduling.
type (
	// Policy is a synthesized droplet routing strategy π: Δ → A.
	Policy = synth.Policy
	// SynthOptions configures strategy synthesis (query, action alphabet,
	// solver).
	SynthOptions = synth.Options
	// SynthResult is the outcome of Alg. 2, including Table V statistics.
	SynthResult = synth.Result
	// Query is a PRISM-style synthesis query (Pmax=? / Rmin=?).
	Query = spec.Query
	// ModelOptions configures the induced per-job MDP.
	ModelOptions = smg.ModelOptions
	// Router is a routing-strategy provider (baseline or adaptive).
	Router = sched.Router
	// StrategyLibrary is the offline strategy store of Alg. 3.
	StrategyLibrary = sched.Library
)

// Simulation.
type (
	// SimConfig tunes an execution (cycle budget, collision margin,
	// re-synthesis latency).
	SimConfig = sim.Config
	// Runner executes bioassays on a chip.
	Runner = sim.Runner
	// Execution is the outcome of one bioassay run.
	Execution = sim.Execution
	// TrialConfig and TrialResult drive repeated-execution trials.
	TrialConfig = sim.TrialConfig
	// TrialResult aggregates one trial.
	TrialResult = sim.TrialResult
	// FaultTrialConfig drives randomized fault-plan trials (cmd/medafuzz
	// and the nightly CI sweep).
	FaultTrialConfig = sim.FaultTrialConfig
	// FaultTrialResult is the outcome of one (benchmark, trial) pair.
	FaultTrialResult = sim.FaultTrialResult
	// Source is a deterministic random stream.
	Source = randx.Source
)

// Benchmark protocols (Sec. VII-A and Sec. III-C).
const (
	MasterMix      = assay.MasterMix
	CEP            = assay.CEP
	SerialDilution = assay.SerialDilution
	NuIP           = assay.NuIP
	CovidRAT       = assay.CovidRAT
	CovidPCR       = assay.CovidPCR
	ChIP           = assay.ChIP
	InVitro        = assay.InVitro
	GeneExpression = assay.GeneExpression
	Protein        = assay.Protein
	PCRMix         = assay.PCRMix
)

// ParseBenchmark resolves a benchmark by slug or display name,
// case-insensitively ("serial-dilution", "NuIP").
func ParseBenchmark(name string) (Benchmark, bool) { return assay.ParseBenchmark(name) }

// BenchmarkSlugs lists every benchmark's slug in declaration order.
func BenchmarkSlugs() []string { return assay.BenchmarkSlugs() }

// Fault-injection modes.
const (
	FaultNone      = degrade.FaultNone
	FaultUniform   = degrade.FaultUniform
	FaultClustered = degrade.FaultClustered
)

// Soft-fault classes (InjectionPlan / MixedFaultPlan).
const (
	ActuationFaults = fault.Actuation
	SensingFaults   = fault.Sensing
	ControlFaults   = fault.Control
	AllFaultKinds   = fault.AllKinds
)

// MixedFaultPlan spreads an overall soft-fault rate across the selected
// fault classes (see fault.Mixed for the split). Attach it to a simulation
// with SimConfig.WithFaults.
func MixedFaultPlan(seed uint64, rate float64, kinds FaultKinds) InjectionPlan {
	return fault.Mixed(seed, rate, kinds)
}

// ParseFaultKinds parses a comma list of soft-fault class names
// (act/actuation, sense/sensing, ctl/control, all, none).
func ParseFaultKinds(s string) (FaultKinds, error) { return fault.ParseKinds(s) }

// NewFallbackRouter wraps a primary router in the graceful-degradation
// ladder: primary (with bounded retries) → health-blind shortest-path
// baseline. Under fault injection this is the recommended router — an
// injected synthesis timeout or an unroutable health view degrades route
// quality instead of wedging the assay.
func NewFallbackRouter(primary Router) Router {
	return sched.NewFallback(primary, sched.NewBaseline())
}

// NewSource returns a deterministic random stream for the given seed.
func NewSource(seed uint64) *Source { return randx.New(seed) }

// DefaultChipConfig is the paper's evaluation biochip: 60×30 microelectrodes
// with 2-bit health sensing, c ~ U(200,500), τ ~ U(0.5,0.9).
func DefaultChipConfig() ChipConfig { return chip.Default() }

// NewChip instantiates a biochip.
func NewChip(cfg ChipConfig, src *Source) (*Chip, error) { return chip.New(cfg, src) }

// DefaultSimConfig mirrors the paper's simulation settings (k_max = 1000).
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// NewRunner assembles a simulation environment.
func NewRunner(cfg SimConfig, c *Chip, r Router, src *Source) *Runner {
	return sim.NewRunner(cfg, c, r, src)
}

// NewBaselineRouter returns the degradation-unaware shortest-path router of
// Sec. VII-A.
func NewBaselineRouter() Router { return sched.NewBaseline() }

// NewAdaptiveRouter returns the paper's adaptive router: Alg. 2 synthesis
// against the observed health matrix with the Alg. 3 strategy library and a
// health-keyed strategy cache. Routing is synchronous and deterministic.
func NewAdaptiveRouter() Router { return sched.NewAdaptive() }

// Compile runs the RJ helper (Alg. 1) over a bioassay for a W×H chip.
func Compile(a *Assay, w, h int) (*Plan, error) { return route.Compile(a, w, h) }

// ParseAssay parses a textual bioassay description (see internal/dsl for the
// format) into a location-free sequencing graph.
func ParseAssay(r io.Reader) (AssayGraph, error) { return dsl.Parse(r) }

// PlaceAssay runs the planner: module placement and reservoir/port binding
// for a location-free graph on a W×H chip.
func PlaceAssay(g AssayGraph, w, h int) (*Assay, error) { return plan.NewPlacer(w, h).Place(g) }

// CompileGraph parses nothing and places+compiles in one step: the full
// pipeline from a location-free graph to routing jobs.
func CompileGraph(g AssayGraph, w, h int) (*Plan, error) {
	placed, err := PlaceAssay(g, w, h)
	if err != nil {
		return nil, err
	}
	return route.Compile(placed, w, h)
}

// CompileBenchmark builds and compiles one of the benchmark protocols
// at the given dispensed-droplet area.
func CompileBenchmark(b Benchmark, cfg ChipConfig, area int) (*Plan, error) {
	return route.Compile(b.Build(assay.Layout{W: cfg.W, H: cfg.H}, area), cfg.W, cfg.H)
}

// DefaultSynthOptions is the paper's synthesis configuration:
// Rmin=? [ G !hazard & F goal ] over the movement alphabet.
func DefaultSynthOptions() SynthOptions { return synth.DefaultOptions() }

// Synthesize runs Alg. 2 for one routing job: field supplies the relative
// EWOD force per microelectrode (use (*Chip).ObservedForceField for the
// health-matrix view).
func Synthesize(rj RoutingJob, field func(x, y int) float64, opt SynthOptions) (SynthResult, error) {
	return synth.Synthesize(rj, field, opt)
}

// ParseQuery parses a PRISM-style synthesis query such as
// "Rmin=? [ G !hazard & F goal ]".
func ParseQuery(s string) (Query, error) { return spec.Parse(s) }

// RunTrial executes a repeated-execution trial of a benchmark bioassay.
func RunTrial(cfg TrialConfig, bench Benchmark, mk func() Router) (TrialResult, error) {
	return sim.RunTrial(cfg, bench, mk)
}

// DefaultTrialConfig mirrors Sec. VII: five executions on a fresh default
// chip.
func DefaultTrialConfig(seed uint64) TrialConfig { return sim.DefaultTrialConfig(seed) }

// RunFaultTrials executes clean/faulted execution pairs across benchmarks
// under randomized fault plans, checking hazard freedom and bounded
// completion-time inflation.
func RunFaultTrials(cfg FaultTrialConfig) ([]FaultTrialResult, error) {
	return sim.RunFaultTrials(cfg)
}

// DefaultFaultTrialConfig is the nightly-CI fault-trial sweep configuration.
func DefaultFaultTrialConfig() FaultTrialConfig { return sim.DefaultFaultTrialConfig() }

// FaultTrialViolations counts failed trials in a result set.
func FaultTrialViolations(results []FaultTrialResult) int { return sim.Violations(results) }
