// Command medasim executes benchmark bioassays on a simulated MEDA biochip,
// comparing the adaptive synthesis router with the shortest-path baseline.
//
//	medasim -assay serial-dilution -router adaptive -executions 10
//	medasim -assay nuip -router both -faults clustered -fraction 0.12
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"meda"
	"meda/internal/telemetry"
	"meda/pkg/api"
)

func main() {
	assayName := flag.String("assay", "serial-dilution", "bioassay: "+names())
	router := flag.String("router", "both", "router: baseline, adaptive, or both")
	seed := flag.Uint64("seed", 2021, "simulation seed")
	executions := flag.Int("executions", 5, "consecutive executions on the same chip")
	kmax := flag.Int("kmax", 1000, "cycle budget per execution")
	area := flag.Int("area", 16, "dispensed droplet area (16 = 4×4)")
	faults := flag.String("faults", "none", "hard-fault injection: none, uniform, clustered")
	fraction := flag.Float64("fraction", 0.12, "fraction of faulty microelectrodes")
	inject := flag.Float64("inject", 0, "soft-fault injection rate (0 disables); enables the graceful-degradation router ladder")
	injectKinds := flag.String("inject-kinds", "all", "soft-fault classes: comma list of act, sense, ctl (or all, none)")
	injectSeed := flag.Uint64("inject-seed", 0, "soft-fault seed (0 = simulation seed)")
	file := flag.String("file", "", "run a custom assay from a .assay description file instead of a named benchmark")
	concurrent := flag.Bool("concurrent", false, "route all ready operations concurrently instead of one hazard zone at a time")
	traceFile := flag.String("trace", "", "write telemetry spans as JSONL to this file")
	remote := flag.String("remote", "", "medad fleet-service URL: submit the assay there instead of simulating locally")
	tenant := flag.String("tenant", "medasim", "tenant ID for -remote")
	chipID := flag.String("chip", "chip-0", "chip ID for -remote (created if missing)")
	flag.Parse()

	if *remote != "" {
		// Remote mode: the service owns routing (always adaptive, with the
		// fallback ladder when injection is on), so -router and the local
		// tuning flags do not apply.
		o := remoteOpts{
			url:    *remote,
			tenant: *tenant,
			chip: api.ChipSpec{
				ID: *chipID, Seed: *seed,
				HardFaults: *faults, FaultFraction: *fraction,
				InjectRate: *inject, InjectKinds: *injectKinds, InjectSeed: *injectSeed,
			},
			job: api.JobSpec{
				Chip: *chipID, Benchmark: *assayName,
				Area: *area, Seed: *seed, KMax: *kmax, Concurrent: *concurrent,
			},
		}
		if *file != "" {
			text, err := os.ReadFile(*file)
			if err != nil {
				fmt.Fprintf(os.Stderr, "medasim: %v\n", err)
				os.Exit(1)
			}
			o.job.Benchmark = ""
			o.job.Assay = string(text)
		}
		if err := runRemote(o); err != nil {
			fmt.Fprintf(os.Stderr, "medasim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "medasim: %v\n", err)
			os.Exit(1)
		}
		tr := telemetry.NewTracer(f)
		telemetry.SetTracer(tr)
		defer func() {
			telemetry.SetTracer(nil)
			if err := tr.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "medasim: trace: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "medasim: trace: %v\n", err)
			}
		}()
	}

	var bench meda.Benchmark
	if *file == "" {
		var ok bool
		bench, ok = meda.ParseBenchmark(*assayName)
		if !ok {
			fmt.Fprintf(os.Stderr, "medasim: unknown assay %q (want one of %s)\n", *assayName, names())
			os.Exit(2)
		}
	}
	var routers []string
	switch *router {
	case "both":
		routers = []string{"baseline", "adaptive"}
	case "baseline", "adaptive":
		routers = []string{*router}
	default:
		fmt.Fprintln(os.Stderr, "medasim: -router must be baseline, adaptive, or both")
		os.Exit(2)
	}

	cfg := meda.DefaultChipConfig()
	switch *faults {
	case "none":
	case "uniform":
		cfg.Faults = meda.FaultPlan{Mode: meda.FaultUniform, Fraction: *fraction, FailAfterLo: 10, FailAfterHi: 120}
	case "clustered":
		cfg.Faults = meda.FaultPlan{Mode: meda.FaultClustered, Fraction: *fraction, FailAfterLo: 10, FailAfterHi: 120}
	default:
		fmt.Fprintln(os.Stderr, "medasim: -faults must be none, uniform, or clustered")
		os.Exit(2)
	}
	kinds, err := meda.ParseFaultKinds(*injectKinds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medasim: %v\n", err)
		os.Exit(2)
	}

	var plan *meda.Plan
	title := ""
	if *file != "" {
		f, ferr := os.Open(*file)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "medasim: %v\n", ferr)
			os.Exit(1)
		}
		g, gerr := meda.ParseAssay(f)
		//lint:ignore errflowstrict close error on a read-only file is meaningless once ParseAssay decided
		f.Close()
		if gerr != nil {
			fmt.Fprintf(os.Stderr, "medasim: %v\n", gerr)
			os.Exit(1)
		}
		plan, err = meda.CompileGraph(g, cfg.W, cfg.H)
		title = g.Name
	} else {
		plan, err = meda.CompileBenchmark(bench, cfg, *area)
		title = bench.String()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "medasim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s on a %d×%d chip (seed %d, faults %s): %d operations, %d routing jobs\n",
		title, cfg.W, cfg.H, *seed, *faults, plan.Assay.Len(), plan.TotalJobs())

	for _, name := range routers {
		src := meda.NewSource(*seed)
		c, err := meda.NewChip(cfg, src.Split("chip"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "medasim: %v\n", err)
			os.Exit(1)
		}
		var r meda.Router
		if name == "adaptive" {
			r = meda.NewAdaptiveRouter()
		} else {
			r = meda.NewBaselineRouter()
		}
		simCfg := meda.DefaultSimConfig()
		simCfg.KMax = *kmax
		simCfg.Concurrent = *concurrent
		if *inject > 0 {
			fseed := *injectSeed
			if fseed == 0 {
				fseed = *seed
			}
			simCfg = simCfg.WithFaults(meda.MixedFaultPlan(fseed, *inject, kinds))
			r = meda.NewFallbackRouter(r)
		}
		runner := meda.NewRunner(simCfg, c, r, src.Split("sim"))
		fmt.Printf("\n%s router:\n", name)
		for e := 1; e <= *executions; e++ {
			exec, err := runner.Execute(plan)
			if err != nil {
				fmt.Fprintf(os.Stderr, "medasim: %v\n", err)
				os.Exit(1)
			}
			status := "ok"
			if !exec.Success {
				status = "ABORTED"
			}
			fmt.Printf("  run %2d: %4d cycles  %-7s  (stalls %d, re-syntheses %d)\n",
				e, exec.Cycles, status, exec.Stalls, exec.Resyntheses)
			if *inject > 0 {
				fmt.Printf("          divergences %d, degraded jobs %d, hazard violations %d\n",
					exec.Divergences, exec.DegradedJobs, exec.HazardViolations)
			}
			if *concurrent {
				fmt.Printf("          peak droplets %d, deadlocks %d, serialized %d, dispense deferrals %d\n",
					exec.PeakDroplets, exec.Deadlocks, exec.SerializedOps, exec.DispenseDeferrals)
			}
			if !exec.Success {
				fmt.Printf("  chip too degraded to continue\n")
				break
			}
		}
		fmt.Printf("  total microelectrode actuations: %d\n", c.TotalActuations())
	}
}

func names() string { return strings.Join(meda.BenchmarkSlugs(), ", ") }
