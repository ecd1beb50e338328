// Command medafuzz runs the benchmark bioassays under randomized soft-fault
// plans and checks that the graceful-degradation ladder holds: no hazard
// violations, every assay completes, and completion time stays within a
// bounded inflation of the clean run. It exits nonzero when any trial is
// violated — the nightly CI's fault-robustness gate.
//
//	medafuzz -trials 3 -seed 2021 -rate 0.05 -kinds all
//	medafuzz -trials 1 -assay serial-dilution -kinds ctl -v
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"meda"
	"meda/internal/telemetry"
)

var benchmarks = map[string]meda.Benchmark{
	"master-mix":      meda.MasterMix,
	"cep":             meda.CEP,
	"serial-dilution": meda.SerialDilution,
	"nuip":            meda.NuIP,
	"covid-rat":       meda.CovidRAT,
	"covid-pcr":       meda.CovidPCR,
}

func main() {
	trials := flag.Int("trials", 3, "fault plans per benchmark")
	seed := flag.Uint64("seed", 2021, "root seed for chips, simulation, and fault plans")
	rate := flag.Float64("rate", 0.05, "nominal mixed fault rate (jittered ±50% per trial)")
	kinds := flag.String("kinds", "all", "fault classes: comma list of act, sense, ctl (or all, none)")
	inflation := flag.Float64("inflation", 3, "max faulted/clean completion-time ratio")
	kmax := flag.Int("kmax", 0, "cycle budget override (0 = simulator default)")
	concurrent := flag.Bool("concurrent", false, "run trials on the concurrent executor")
	assayName := flag.String("assay", "", "run a single benchmark instead of the six-assay suite")
	verbose := flag.Bool("v", false, "log each trial")
	flag.Parse()

	k, err := meda.ParseFaultKinds(*kinds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medafuzz: %v\n", err)
		os.Exit(2)
	}
	cfg := meda.DefaultFaultTrialConfig()
	cfg.Seed = *seed
	cfg.Trials = *trials
	cfg.Rate = *rate
	cfg.Kinds = k
	cfg.Inflation = *inflation
	cfg.KMax = *kmax
	cfg.Concurrent = *concurrent
	if *assayName != "" {
		bench, ok := benchmarks[*assayName]
		if !ok {
			fmt.Fprintf(os.Stderr, "medafuzz: unknown assay %q\n", *assayName)
			os.Exit(2)
		}
		cfg.Benchmarks = []meda.Benchmark{bench}
	}
	var logw io.Writer
	if *verbose {
		logw = os.Stderr
	}
	cfg.Log = logw

	results, err := meda.RunFaultTrials(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medafuzz: %v\n", err)
		os.Exit(1)
	}
	violations := 0
	for _, res := range results {
		if res.Violation == "" {
			continue
		}
		violations++
		fmt.Fprintf(os.Stderr, "medafuzz: %s trial %d: %s\n", res.Benchmark, res.Trial, res.Violation)
	}
	snap := telemetry.Default().Snapshot()
	fallbacks := snap.Counters["sched.fallback.retries"] +
		snap.Counters["sched.fallback.recovered"] +
		snap.Counters["sched.fallback.final"] +
		snap.Counters["sched.fallback.degraded"]
	fmt.Printf("medafuzz: %d trials, %d violations (seed %d, rate %.3g, kinds %s)\n",
		len(results), violations, *seed, *rate, k)
	fmt.Printf("medafuzz: injected %d synth timeouts, %d poisoned stores; %d fallback events, %d divergences\n",
		snap.Counters["sched.fault.synth_timeouts"],
		snap.Counters["sched.fault.cache_poisoned"],
		fallbacks,
		snap.Counters["sim.divergences"])
	if violations > 0 {
		os.Exit(1)
	}
}
