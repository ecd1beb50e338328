// Command medabench runs the synthesis-engine benchmarks and records the
// results as JSON, so the performance trajectory is tracked across changes:
//
//	medabench -out BENCH_synthesis.json
//
// Each row is the median of a fixed number of runs, recorded with their
// spread. The suite covers the synthesis hot path of Table V (model
// construction + value iteration), cold vs pooled-arena model construction,
// construction over a worn chip's observed health rather than a constant
// field, the solver on a uniformly worn window and on a healthy window
// worn along a band (where most choices are deterministic), a policy
// lookup, the whole synthesis of an obstructed job on a healthy chip (the
// unit path), the cold-vs-warm strategy cache for re-synthesis, a Library
// hit on a rotated job, the D4-canonical cache serving a whole symmetry
// class of jobs from one synthesis, an obstructed window served from the
// cache, journaling the end of a job (serve.Store), the
// sequential-vs-concurrent assay executor with the adaptive router on a
// contention-heavy generated workload, and actuating a droplet-sized
// pattern on a default and a near-immortal chip.
// Derived ratios (warm_cache_speedup, pooled_construction_speedup,
// canonicalization_hit_rate, concurrent_cycle_reduction) are computed from
// the same runs; solver_worn_band_gathered_share is the share of the band
// model's choices the solver gathers.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"meda"
	"meda/internal/action"
	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/mdp"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
	"meda/internal/serve"
	"meda/internal/sim"
	"meda/internal/smg"
	"meda/internal/synth"
	"meda/internal/telemetry"
	"meda/pkg/api"
)

// A row is the run with the median ns/op of runsPerRow testing.Benchmark
// runs, so one run slowed by other load on a shared machine does not move
// it; NsSpread, the largest minus the smallest ns/op of those runs, shows
// how far they disagreed.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsSpread    float64 `json:"ns_spread"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// runsPerRow is the fixed number of runs behind each row (odd, so the
// median is one of them).
const runsPerRow = 5

type report struct {
	Generated  string             `json:"generated"`
	GoMaxProcs int                `json:"go_max_procs"`
	NumCPU     int                `json:"num_cpu"`
	Benchmarks []result           `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived"`
	// Telemetry is the process-wide counter snapshot after all benchmark
	// runs — VI sweep totals, cache hits/misses, arena reuse — so the
	// recorded timings can be cross-checked against how much work actually
	// happened (e.g. a "speedup" from accidentally cached solves shows up
	// as a hit/solve ratio shift).
	Telemetry telemetry.Snapshot `json:"telemetry"`
}

func record(rep *report, name string, f func(b *testing.B)) result {
	runs := make([]testing.BenchmarkResult, runsPerRow)
	for i := range runs {
		runs[i] = testing.Benchmark(f)
	}
	nsPerOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	sort.Slice(runs, func(i, j int) bool { return nsPerOp(runs[i]) < nsPerOp(runs[j]) })
	r := runs[runsPerRow/2]
	res := result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     nsPerOp(r),
		NsSpread:    nsPerOp(runs[runsPerRow-1]) - nsPerOp(runs[0]),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	rep.Benchmarks = append(rep.Benchmarks, res)
	fmt.Printf("%-42s %12.0f ns/op ±%5.1f%% %12d B/op %9d allocs/op\n",
		name, res.NsPerOp, 50*res.NsSpread/res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	return res
}

func main() {
	out := flag.String("out", "BENCH_synthesis.json", "output JSON path")
	flag.Parse()

	// Open the output up front so a bad path fails before, not after, the
	// benchmark runs.
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}

	rep := &report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Derived:    map[string]float64{},
	}
	worn := func(x, y int) float64 { return 0.81 }

	// Table V synthesis rows: full pipeline (Induce + solve + extract).
	for _, area := range []int{10, 20, 30} {
		rj := meda.RoutingJob{
			Start:  meda.Rect{XA: 1, YA: 1, XB: 4, YB: 4},
			Goal:   meda.Rect{XA: area - 3, YA: area - 3, XB: area, YB: area},
			Hazard: meda.Rect{XA: 1, YA: 1, XB: area, YB: area},
		}
		record(rep, fmt.Sprintf("table_v_synthesis/%dx%d", area, area), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := synth.Synthesize(rj, worn, synth.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// A chip worn unevenly under a routing job's hazard window: the
	// re-synthesis rows route on it, and the chip-field construction row
	// reads its observed health, as online synthesis does.
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.5, Tau2: 0.9, C1: 200, C2: 500}
	c, err := chip.New(cfg, randx.New(7))
	if err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}
	job := meda.RoutingJob{
		Start:  meda.Rect{XA: 10, YA: 10, XB: 13, YB: 13},
		Goal:   meda.Rect{XA: 30, YA: 15, XB: 33, YB: 18},
		Hazard: meda.Rect{XA: 7, YA: 7, XB: 36, YB: 21},
	}
	for i := 0; i < 3000; i++ {
		c.Actuate(job.Hazard)
	}

	// Model construction in isolation (Table V's construction column): cold
	// (fresh allocations every build) vs pooled (one smg.Arena recycling its
	// CSR slabs across builds).
	construct := record(rep, "model_construction/30x30", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := smg.Induce(
				meda.Rect{XA: 1, YA: 1, XB: 30, YB: 30},
				meda.Rect{XA: 1, YA: 1, XB: 4, YB: 4},
				meda.Rect{XA: 27, YA: 27, XB: 30, YB: 30},
				worn, smg.DefaultModelOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	var arena smg.Arena
	pooled := record(rep, "model_construction_pooled/30x30", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := arena.Induce(
				meda.Rect{XA: 1, YA: 1, XB: 30, YB: 30},
				meda.Rect{XA: 1, YA: 1, XB: 4, YB: 4},
				meda.Rect{XA: 27, YA: 27, XB: 30, YB: 30},
				worn, smg.DefaultModelOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.Derived["pooled_construction_speedup"] = construct.NsPerOp / pooled.NsPerOp
	// The same construction over the worn chip's observed force field
	// rather than a constant one: every frontier cell is a health read.
	observed := c.ObservedForceField()
	record(rep, "model_construction_chip/30x30", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := smg.Induce(
				meda.Rect{XA: 1, YA: 1, XB: 30, YB: 30},
				meda.Rect{XA: 1, YA: 1, XB: 4, YB: 4},
				meda.Rect{XA: 27, YA: 27, XB: 30, YB: 30},
				observed, smg.DefaultModelOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The solver on one uniformly worn 30×30 model.
	model, err := smg.Induce(
		meda.Rect{XA: 1, YA: 1, XB: 30, YB: 30},
		meda.Rect{XA: 1, YA: 1, XB: 4, YB: 4},
		meda.Rect{XA: 27, YA: 27, XB: 30, YB: 30},
		worn, smg.DefaultModelOptions())
	if err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}
	solve := func(model *smg.Model, opt mdp.SolveOptions) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := model.M.MinExpectedReward(model.Goal, model.Hazard, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	record(rep, "solver/gauss-seidel", solve(model, mdp.SolveOptions{}))
	// The same job over a healthy window worn along its diagonal, the way
	// repeated routing wears a chip: the choices whose frontiers miss the
	// band are deterministic, and the solver gathers them into one min per
	// state, unlike on the uniformly worn field (one gathered choice).
	band := func(x, y int) float64 {
		if x-y >= -2 && x-y <= 2 {
			return 0.64
		}
		return 1
	}
	bandModel, err := smg.Induce(
		meda.Rect{XA: 1, YA: 1, XB: 30, YB: 30},
		meda.Rect{XA: 1, YA: 1, XB: 4, YB: 4},
		meda.Rect{XA: 27, YA: 27, XB: 30, YB: 30},
		band, smg.DefaultModelOptions())
	if err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}
	view := bandModel.M.CSR()
	gathered := 0
	for s := 0; s < view.NumStates; s++ {
		gathered += int(view.StateOff[s+1] - view.DetOff[s])
	}
	rep.Derived["solver_worn_band_gathered_share"] = float64(gathered) / float64(view.StateOff[view.NumStates])
	record(rep, "solver/gauss-seidel-worn-band", solve(bandModel, mdp.SolveOptions{}))

	// Serving a strategy: one Policy.Lookup per droplet position per cycle
	// in the executor, here cycling over every position the band job's
	// policy covers.
	bandJob := meda.RoutingJob{
		Start:  meda.Rect{XA: 1, YA: 1, XB: 4, YB: 4},
		Goal:   meda.Rect{XA: 27, YA: 27, XB: 30, YB: 30},
		Hazard: meda.Rect{XA: 1, YA: 1, XB: 30, YB: 30},
	}
	bandRes, err := synth.Synthesize(bandJob, band, synth.DefaultOptions())
	if err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}
	var positions []meda.Rect
	bandRes.Policy.Walk(func(d meda.Rect, _ action.Action) { positions = append(positions, d) })
	record(rep, "policy/lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := bandRes.Policy.Lookup(positions[i%len(positions)]); !ok {
				b.Fatal("policy lost a position")
			}
		}
	})
	// The same job on a healthy chip with one obstacle block. Its window is
	// all-healthy, so synthesis takes the unit path: a successor table and
	// one BFS, no MDP.
	blocked := smg.DefaultModelOptions()
	blocked.Blocked = []meda.Rect{{XA: 14, YA: 12, XB: 17, YB: 19}}
	healthyOpt := synth.DefaultOptions()
	healthyOpt.Model = blocked
	healthyJob := meda.RoutingJob{
		Start:  meda.Rect{XA: 1, YA: 1, XB: 4, YB: 4},
		Goal:   meda.Rect{XA: 27, YA: 27, XB: 30, YB: 30},
		Hazard: meda.Rect{XA: 1, YA: 1, XB: 30, YB: 30},
	}
	record(rep, "synthesis/healthy-obstructed/30x30", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := synth.Synthesize(healthyJob, func(x, y int) float64 { return 1 }, healthyOpt); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Re-synthesis: cold (synthesize every time) vs warm (health-keyed
	// strategy cache hit). The chip region is degraded so the library fast
	// path does not apply and the cache path is exercised.
	cold := record(rep, "resynthesis/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := sched.NewAdaptive(sched.DefaultCacheSize) // fresh router: empty cache every time
			if _, _, err := a.Route(job, c, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	warmRouter := sched.NewAdaptive(sched.DefaultCacheSize)
	if _, _, err := warmRouter.Route(job, c, nil); err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}
	warm := record(rep, "resynthesis/warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := warmRouter.Route(job, c, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.Derived["warm_cache_speedup"] = cold.NsPerOp / warm.NsPerOp

	// Canonicalization: on a uniformly degraded region, every translated,
	// mirrored, or transposed image of a job keys to one D4-canonical cache
	// entry, so a single synthesis serves the whole symmetry class. The
	// benchmark routes 40 distinct jobs (8 dihedral images × 5 positions)
	// through one router and records the per-hit cost of serving a
	// de-canonicalized policy; the derived hit rate is what fraction of those
	// routes never touched the synthesizer.
	ucfg := chip.Default()
	ucfg.Normal = degrade.ParamRange{Tau1: 0.7, Tau2: 0.7, C1: 300, C2: 300}
	uc, err := chip.New(ucfg, randx.New(11))
	if err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}
	whole := meda.Rect{XA: 1, YA: 1, XB: uc.W(), YB: uc.H()}
	for i := 0; i < 3000; i++ {
		uc.Actuate(whole)
	}
	top := 1<<uint(uc.HealthBits()) - 1
	if code, uniform := uc.UniformHealth(whole); !uniform || code == top {
		fmt.Fprintf(os.Stderr, "medabench: canonical benchmark needs a uniformly degraded chip (code %d, uniform %v)\n", code, uniform)
		os.Exit(1)
	}
	base := meda.RoutingJob{
		Start:  meda.Rect{XA: 1, YA: 1, XB: 3, YB: 3},
		Goal:   meda.Rect{XA: 12, YA: 8, XB: 14, YB: 10},
		Hazard: meda.Rect{XA: 1, YA: 1, XB: 14, YB: 10},
	}
	var jobs []meda.RoutingJob
	for op := uint8(0); op < 8; op++ {
		tf := synth.Transform{Op: op, X0: base.Hazard.XA, Y0: base.Hazard.YA,
			W: base.Hazard.Width(), H: base.Hazard.Height()}
		for _, d := range [][2]int{{0, 0}, {9, 3}, {21, 7}, {33, 12}, {44, 0}} {
			j := meda.RoutingJob{
				Start:  tf.Apply(base.Start).Translate(d[0], d[1]),
				Goal:   tf.Apply(base.Goal).Translate(d[0], d[1]),
				Hazard: tf.Apply(base.Hazard).Translate(d[0], d[1]),
			}
			if whole.ContainsRect(j.Hazard) {
				jobs = append(jobs, j)
			}
		}
	}
	canonRouter := sched.NewAdaptive(sched.DefaultCacheSize)
	for _, j := range jobs { // one pass to measure the hit rate
		if _, _, err := canonRouter.Route(j, uc, nil); err != nil {
			fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
			os.Exit(1)
		}
	}
	rep.Derived["canonicalization_hit_rate"] =
		float64(canonRouter.CacheHits) / float64(canonRouter.CacheHits+canonRouter.Syntheses)
	rep.Derived["canonicalization_jobs_per_synthesis"] =
		float64(len(jobs)) / float64(canonRouter.Syntheses)
	// A Library hit on a rotated image of a stored job: the lookup maps the
	// canonical strategy back through the dihedral element.
	lib := sched.NewLibrary()
	baseRes, err := synth.Synthesize(base, func(x, y int) float64 { return 1 }, synth.DefaultOptions())
	if err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}
	lib.Store(base, baseRes.Policy, baseRes.Value)
	rotated := synth.Transform{Op: 3, X0: base.Hazard.XA, Y0: base.Hazard.YA, W: base.Hazard.Width(), H: base.Hazard.Height()}
	image := meda.RoutingJob{Start: rotated.Apply(base.Start), Goal: rotated.Apply(base.Goal), Hazard: rotated.Apply(base.Hazard)}
	record(rep, "library/d4_lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, ok := lib.Lookup(image); !ok {
				b.Fatal("library lost the stored job")
			}
		}
	})

	idx := 0
	record(rep, "cache/canonical_hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := jobs[idx%len(jobs)]
			idx++
			if _, _, err := canonRouter.Route(j, uc, nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	// An obstructed window served from the Cache: its raw key carries the
	// signature of the obstacles clipped to the window, so routing around
	// the same droplets again — listed in another order, one repeated — is
	// a hit, not a synthesis.
	obstacles := []meda.Rect{{XA: 18, YA: 12, XB: 21, YB: 17}, {XA: 34, YA: 5, XB: 40, YB: 9}}
	obsRouter := sched.NewAdaptive(sched.DefaultCacheSize)
	if _, _, err := obsRouter.Route(job, c, obstacles); err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}
	reordered := []meda.Rect{obstacles[1], obstacles[0], obstacles[1]}
	record(rep, "cache/obstructed_hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := obsRouter.Route(job, c, reordered); err != nil {
				b.Fatal(err)
			}
		}
		if obsRouter.Syntheses != 1 {
			b.Fatalf("%d syntheses for one obstructed window", obsRouter.Syntheses)
		}
	})

	// Journaling the end of a job: Store.Append of a job_done record that
	// carries a default 60×30 chip's state, without the fsync (the row
	// measures encoding and the write). The journal is truncated, untimed,
	// every 64 records so the row does not fill the disk.
	if err := appendJobDoneRow(rep); err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}

	// Assay execution with the paper's adaptive router: sequential (one
	// hazard zone at a time) vs concurrent (all ready operations at once) on
	// a contention-heavy generated mixture — three paper protocols
	// concatenated onto shifted regions of one 60×30 chip, so their droplets
	// compete for reservoirs, modules, and corridor space. Cycle counts are deterministic for a fixed seed, so the derived
	// ratio records the assay-level makespan reduction concurrency buys; the
	// benchmark rows track each executor's wall-clock cost per execution.
	mix := assay.Mixture(15, assay.Layout{W: 60, H: 30}, 16, 3)
	mixPlan, err := route.Compile(mix, 60, 30)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}
	runExec := func(concurrent bool) (sim.Execution, error) {
		// Near-immortal microelectrodes isolate executor scheduling from wear.
		ecfg := chip.Default()
		ecfg.Normal = degrade.ParamRange{Tau1: 0.99, Tau2: 0.999, C1: 5000, C2: 10000}
		src := randx.New(15)
		ec, err := chip.New(ecfg, src.Split("chip"))
		if err != nil {
			return sim.Execution{}, err
		}
		scfg := sim.DefaultConfig()
		scfg.KMax = 8000
		scfg.Concurrent = concurrent
		return sim.NewRunner(scfg, ec, sched.NewAdaptive(sched.DefaultCacheSize), src.Split("sim")).Execute(mixPlan)
	}
	seqExec, err := runExec(false)
	if err == nil && !seqExec.Success {
		err = fmt.Errorf("sequential execution of %s aborted after %d cycles", mix.Name, seqExec.Cycles)
	}
	var conExec sim.Execution
	if err == nil {
		conExec, err = runExec(true)
	}
	if err == nil && !conExec.Success {
		err = fmt.Errorf("concurrent execution of %s aborted after %d cycles", mix.Name, conExec.Cycles)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}
	rep.Derived["concurrent_cycle_reduction"] = float64(seqExec.Cycles) / float64(conExec.Cycles)
	execBench := func(concurrent bool) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runExec(concurrent); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	record(rep, "executor/sequential", execBench(false))
	record(rep, "executor/concurrent", execBench(true))

	// Actuating a droplet: one Actuate call of a 4×4 pattern that walks the
	// chip row by row, on a default-wear chip and on a near-immortal one.
	// The chip is replaced, untimed, every actuateLife calls, so the rows
	// measure cells early in life, crossing their first quantization drops,
	// rather than cells long worn down to the zero code.
	for _, wear := range []struct {
		name   string
		normal degrade.ParamRange
	}{
		{"default", degrade.DefaultNormal},
		{"near-immortal", degrade.ParamRange{Tau1: 0.99, Tau2: 0.999, C1: 5000, C2: 10000}},
	} {
		acfg := chip.Default()
		acfg.Normal = wear.normal
		fresh := func(b *testing.B) *chip.Chip {
			ac, err := chip.New(acfg, randx.New(21))
			if err != nil {
				b.Fatal(err)
			}
			return ac
		}
		record(rep, "chip/actuate/"+wear.name, func(b *testing.B) {
			const actuateLife = 1 << 16
			ac := fresh(b)
			cols, rows := acfg.W-3, acfg.H-3
			for i := 0; i < b.N; i++ {
				if i%actuateLife == actuateLife-1 {
					b.StopTimer()
					ac = fresh(b)
					b.StartTimer()
				}
				x, y := 1+i%cols, 1+i/cols%rows
				ac.Actuate(meda.Rect{XA: x, YA: y, XB: x + 3, YB: y + 3})
			}
		})
	}

	rep.Telemetry = telemetry.Default().Snapshot()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "medabench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nwarm-cache speedup (cold → warm):    %.0fx\n", rep.Derived["warm_cache_speedup"])
	fmt.Printf("pooled construction speedup:         %.2fx\n", rep.Derived["pooled_construction_speedup"])
	fmt.Printf("canonicalization hit rate:           %.1f%% (%.0f jobs per synthesis)\n",
		100*rep.Derived["canonicalization_hit_rate"], rep.Derived["canonicalization_jobs_per_synthesis"])
	fmt.Printf("concurrent cycle reduction:          %.2fx (%d → %d cycles on %s)\n",
		rep.Derived["concurrent_cycle_reduction"], seqExec.Cycles, conExec.Cycles, mix.Name)
	fmt.Printf("wrote %s\n", *out)
}

// appendJobDoneRow records journal/append_job_done on a store in a
// temporary directory, removed afterwards.
func appendJobDoneRow(rep *report) error {
	dc, err := chip.New(chip.Default(), randx.New(1))
	if err != nil {
		return err
	}
	var state bytes.Buffer
	if err := dc.SaveState(&state); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "medabench-journal-")
	if err != nil {
		return err
	}
	store, err := serve.OpenStore(dir)
	if err == nil {
		result := &api.Execution{Success: true, Cycles: 214, Stalls: 3, Resyntheses: 12, JobsCompleted: 9, PeakDroplets: 4}
		record(rep, "journal/append_job_done", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if i%64 == 63 {
					b.StopTimer()
					if err := store.Snapshot(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := store.AppendJobDone("j-000001", result, "", state.Bytes(), false); err != nil {
					b.Fatal(err)
				}
			}
		})
		err = store.Close()
	}
	return errors.Join(err, os.RemoveAll(dir))
}
