// Command medaexp regenerates the paper's tables and figures from the
// simulation substrate. Usage:
//
//	medaexp [-seed N] [-quick] fig2|fig3|fig5|fig6|fig7|fig15|fig16|tab4|tab5|all
//
// -quick shrinks trial counts for a fast smoke run; the default
// configurations mirror the paper's setup.
package main

import (
	"flag"
	"fmt"
	"os"

	"meda/internal/assay"
	"meda/internal/exp"
	"meda/internal/fault"
	"meda/internal/telemetry"
)

func main() {
	seed := flag.Uint64("seed", 2021, "experiment seed")
	quick := flag.Bool("quick", false, "shrink trial counts for a fast run")
	concurrent := flag.Bool("concurrent", false, "execute assays on the concurrent executor (all ready operations at once)")
	cacheSize := flag.Int("cache", -1, "strategy-cache bound for adaptive routers (0 disables, negative = default)")
	inject := flag.Float64("inject", 0, "soft-fault injection rate for all drivers (0 disables)")
	injectKinds := flag.String("inject-kinds", "all", "soft-fault classes: comma list of act, sense, ctl (or all, none)")
	injectSeed := flag.Uint64("inject-seed", 0, "soft-fault seed (0 = experiment seed)")
	traceFile := flag.String("trace", "", "write telemetry spans as JSONL to this file")
	remote := flag.String("remote", "", "medad fleet-service URL: run the benchmark sweep there instead of the local drivers")
	tenant := flag.String("tenant", "medaexp", "tenant ID for -remote")
	flag.Parse()
	if *remote != "" {
		if err := remoteSweep(*remote, *tenant, *seed, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "medaexp: %v\n", err)
			os.Exit(1)
		}
		return
	}
	exp.SetCacheSize(*cacheSize)
	exp.SetConcurrent(*concurrent)
	if *inject > 0 {
		kinds, err := fault.ParseKinds(*injectKinds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "medaexp: %v\n", err)
			os.Exit(2)
		}
		fseed := *injectSeed
		if fseed == 0 {
			fseed = *seed
		}
		exp.SetFaultInjection(fault.Mixed(fseed, *inject, kinds))
	}
	targets := flag.Args()
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "usage: medaexp [-seed N] [-quick] fig2|fig3|fig5|fig6|fig7|fig15|fig16|tab4|tab5|recovery|bits|alphabet|ttr|all")
		os.Exit(2)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "medaexp: %v\n", err)
			os.Exit(1)
		}
		tr := telemetry.NewTracer(f)
		telemetry.SetTracer(tr)
		defer func() {
			telemetry.SetTracer(nil)
			if err := tr.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "medaexp: trace: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "medaexp: trace: %v\n", err)
			}
		}()
	}
	for _, t := range targets {
		if err := run(t, *seed, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "medaexp %s: %v\n", t, err)
			os.Exit(1)
		}
	}
}

func run(target string, seed uint64, quick bool) error {
	w := os.Stdout
	switch target {
	case "all":
		for _, t := range []string{"fig2", "fig3", "fig5", "fig6", "fig7", "tab4", "tab5", "fig15", "fig16", "recovery", "bits", "alphabet", "ttr"} {
			if err := run(t, seed, quick); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	case "fig2":
		exp.Fig2(200).Render(w)
	case "fig3":
		cfg := exp.DefaultFig3Config(seed)
		if quick {
			cfg.Sides = []int{3, 6}
			cfg.MaxPairs = 1000
		}
		points, err := exp.Fig3(cfg)
		if err != nil {
			return err
		}
		exp.RenderFig3(w, points)
	case "fig5":
		series, err := exp.Fig5(seed)
		if err != nil {
			return err
		}
		exp.RenderFig5(w, series)
	case "fig6":
		series, err := exp.Fig6(seed)
		if err != nil {
			return err
		}
		exp.RenderFig6(w, series)
	case "fig7":
		exp.RenderFig7(w, exp.Fig7(exp.DefaultFig7Configs(), 1500, 25))
	case "fig15":
		cfg := exp.DefaultFig15Config(seed)
		if quick {
			cfg.Trials = 3
			cfg.Assays = []assay.Benchmark{assay.CovidRAT, assay.SerialDilution}
			cfg.KMaxSweep = []int{150, 250, 350}
		}
		points, err := exp.Fig15(cfg)
		if err != nil {
			return err
		}
		exp.RenderFig15(w, points)
	case "fig16":
		cfg := exp.DefaultFig16Config(seed)
		if quick {
			cfg.Trials = 3
			cfg.Assays = []assay.Benchmark{assay.CovidRAT, assay.SerialDilution}
		}
		rows, err := exp.Fig16(cfg)
		if err != nil {
			return err
		}
		exp.RenderFig16(w, rows)
	case "ttr":
		rows, err := exp.TimeToResult(seed)
		if err != nil {
			return err
		}
		exp.RenderTTR(w, rows)
	case "bits":
		cfg := exp.DefaultHealthBitsConfig(seed)
		if quick {
			cfg.Trials = 2
			cfg.Executions = 5
		}
		rows, err := exp.HealthBits(cfg)
		if err != nil {
			return err
		}
		exp.RenderHealthBits(w, rows)
	case "alphabet":
		rows, err := exp.Alphabet()
		if err != nil {
			return err
		}
		exp.RenderAlphabet(w, rows)
	case "recovery":
		cfg := exp.DefaultRecoveryConfig(seed)
		if quick {
			cfg.Trials = 3
			cfg.Assays = []assay.Benchmark{assay.SerialDilution}
		}
		rows, err := exp.Recovery(cfg)
		if err != nil {
			return err
		}
		exp.RenderRecovery(w, rows)
	case "tab4":
		rows, err := exp.TableIV()
		if err != nil {
			return err
		}
		exp.RenderTableIV(w, rows)
	case "tab5":
		rows, err := exp.TableV(exp.DefaultTableVConfig())
		if err != nil {
			return err
		}
		exp.RenderTableV(w, rows)
	default:
		return fmt.Errorf("unknown target %q", target)
	}
	return nil
}
