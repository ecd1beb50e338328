// Repository-level benchmark harness: one testing.B benchmark per table and
// figure of the paper (run `go test -bench=. -benchmem`), plus ablation
// benchmarks for the design choices called out in DESIGN.md. The figure
// benchmarks wrap the internal/exp drivers at reduced trial counts so a full
// `-bench=.` run finishes on a laptop; cmd/medaexp runs the full-scale
// configurations.
package meda_test

import (
	"testing"

	"meda"
	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/exp"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
	"meda/internal/sim"
	"meda/internal/smg"
	"meda/internal/spec"
	"meda/internal/synth"
)

// --- Figure 2: MC sensing simulation -----------------------------------

func BenchmarkFig2Sensing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Fig2(200)
		if res.Codes == nil {
			b.Fatal("no codes")
		}
	}
}

// --- Figure 3: actuation correlation vs Manhattan distance --------------

func BenchmarkFig3Correlation(b *testing.B) {
	cfg := exp.DefaultFig3Config(1)
	cfg.Assays = []assay.Benchmark{assay.ChIP}
	cfg.Sides = []int{4}
	cfg.MaxPairs = 1500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: electrode capacitance growth ------------------------------

func BenchmarkFig5Degradation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig5(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6: EWOD force decay fit --------------------------------------

func BenchmarkFig6ForceFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: degradation and health curves -----------------------------

func BenchmarkFig7Health(b *testing.B) {
	cfgs := exp.DefaultFig7Configs()
	for i := 0; i < b.N; i++ {
		if got := exp.Fig7(cfgs, 1500, 25); len(got) != len(cfgs) {
			b.Fatal("wrong series count")
		}
	}
}

// --- Table IV: MO → RJ decomposition -------------------------------------

func BenchmarkTableIVCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.TableIV(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table V: synthesis performance --------------------------------------

// BenchmarkTableVSynthesis measures one strategy synthesis per paper row;
// sub-benchmarks are named area/droplet.
func BenchmarkTableVSynthesis(b *testing.B) {
	worn := func(x, y int) float64 { return 0.81 }
	for _, area := range []int{10, 20, 30} {
		for _, d := range []int{3, 4, 5, 6} {
			rj := route.RJ{
				Start:  meda.Rect{XA: 1, YA: 1, XB: d, YB: d},
				Goal:   meda.Rect{XA: area - d + 1, YA: area - d + 1, XB: area, YB: area},
				Hazard: meda.Rect{XA: 1, YA: 1, XB: area, YB: area},
			}
			b.Run(
				// e.g. "20x20/4x4"
				itoa(area)+"x"+itoa(area)+"/"+itoa(d)+"x"+itoa(d),
				func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						res, err := synth.Synthesize(rj, worn, synth.DefaultOptions())
						if err != nil || !res.Exists() {
							b.Fatalf("synthesis failed: %v", err)
						}
					}
				})
		}
	}
}

// --- Figure 15: probability of successful completion ---------------------

func BenchmarkFig15PoS(b *testing.B) {
	cfg := exp.DefaultFig15Config(3)
	cfg.Assays = []assay.Benchmark{assay.CovidRAT}
	cfg.KMaxSweep = []int{100}
	cfg.Trials = 1
	cfg.Executions = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig15(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 16: fault-injection evaluation -------------------------------

func BenchmarkFig16FaultInjection(b *testing.B) {
	cfg := exp.DefaultFig16Config(4)
	cfg.Assays = []assay.Benchmark{assay.CovidRAT}
	cfg.Trials = 1
	cfg.Executions = 2
	cfg.KMax = 400
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig16(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

// BenchmarkAblationActionAlphabet quantifies how much of the routing win
// comes from the richer action alphabet: cardinal-only vs +ordinal vs
// +double-step.
func BenchmarkAblationActionAlphabet(b *testing.B) {
	worn := func(x, y int) float64 { return 0.81 }
	rj := route.RJ{
		Start:  meda.Rect{XA: 1, YA: 1, XB: 4, YB: 4},
		Goal:   meda.Rect{XA: 17, YA: 17, XB: 20, YB: 20},
		Hazard: meda.Rect{XA: 1, YA: 1, XB: 20, YB: 20},
	}
	variants := []struct {
		name            string
		double, ordinal bool
	}{
		{"cardinal-only", false, false},
		{"with-ordinal", false, true},
		{"full-alphabet", true, true},
	}
	for _, v := range variants {
		opt := synth.DefaultOptions()
		opt.Model.AllowDouble = v.double
		opt.Model.AllowOrdinal = v.ordinal
		b.Run(v.name, func(b *testing.B) {
			var value float64
			for i := 0; i < b.N; i++ {
				res, err := synth.Synthesize(rj, worn, opt)
				if err != nil {
					b.Fatal(err)
				}
				value = res.Value
			}
			b.ReportMetric(value, "expected-cycles")
		})
	}
}

// BenchmarkAblationHealthBits varies the sensing resolution b: more health
// bits mean earlier detection of degradation but the same model size.
func BenchmarkAblationHealthBits(b *testing.B) {
	for _, bits := range []int{1, 2, 3, 4} {
		cfg := chip.Default()
		cfg.HealthBits = bits
		b.Run("b="+itoa(bits), func(b *testing.B) {
			var lastCycles int
			for i := 0; i < b.N; i++ {
				src := randx.New(uint64(11 + i))
				c, err := chip.New(cfg, src.Split("chip"))
				if err != nil {
					b.Fatal(err)
				}
				plan, err := meda.CompileBenchmark(meda.SerialDilution, cfg, 16)
				if err != nil {
					b.Fatal(err)
				}
				runner := sim.NewRunner(sim.DefaultConfig(), c, sched.NewAdaptive(sched.DefaultCacheSize), src.Split("sim"))
				// Reuse the chip so sensing resolution matters: finer b
				// detects wear earlier and keeps late runs shorter.
				for e := 0; e < 6; e++ {
					exec, err := runner.Execute(plan)
					if err != nil {
						b.Fatal(err)
					}
					lastCycles = exec.Cycles
				}
			}
			b.ReportMetric(float64(lastCycles), "cycles-run6")
		})
	}
}

// BenchmarkAblationQuery compares the two synthesis queries of Sec. VI-C on
// the same degraded model.
func BenchmarkAblationQuery(b *testing.B) {
	worn := func(x, y int) float64 { return 0.64 }
	rj := route.RJ{
		Start:  meda.Rect{XA: 1, YA: 1, XB: 4, YB: 4},
		Goal:   meda.Rect{XA: 17, YA: 17, XB: 20, YB: 20},
		Hazard: meda.Rect{XA: 1, YA: 1, XB: 20, YB: 20},
	}
	for _, kind := range []spec.Kind{spec.RMin, spec.PMax} {
		opt := synth.DefaultOptions()
		opt.Query = spec.RoutingQuery(kind)
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := synth.Synthesize(rj, worn, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationResynthesis varies the re-synthesis rate limit: frequent
// refreshes react faster to degradation at higher synthesis cost.
func BenchmarkAblationResynthesis(b *testing.B) {
	for _, interval := range []int{1, 5, 20, 1 << 30} {
		name := "every-" + itoa(interval)
		if interval == 1<<30 {
			name = "never"
		}
		b.Run(name, func(b *testing.B) {
			var resyntheses, lastCycles int
			for i := 0; i < b.N; i++ {
				src := randx.New(uint64(21 + i))
				cfg := chip.Default()
				c, err := chip.New(cfg, src.Split("chip"))
				if err != nil {
					b.Fatal(err)
				}
				plan, err := meda.CompileBenchmark(meda.SerialDilution, cfg, 16)
				if err != nil {
					b.Fatal(err)
				}
				simCfg := sim.DefaultConfig()
				simCfg.MinResynthInterval = interval
				runner := sim.NewRunner(simCfg, c, sched.NewAdaptive(sched.DefaultCacheSize), src.Split("sim"))
				resyntheses = 0
				for e := 0; e < 6; e++ {
					exec, err := runner.Execute(plan)
					if err != nil {
						b.Fatal(err)
					}
					resyntheses += exec.Resyntheses
					lastCycles = exec.Cycles
				}
			}
			b.ReportMetric(float64(resyntheses), "resyntheses")
			b.ReportMetric(float64(lastCycles), "cycles-run6")
		})
	}
}

// BenchmarkAblationResynthesisCache measures re-synthesis of one degraded
// routing job cold (fresh router, empty cache — every route synthesizes) vs
// warm (health-keyed strategy cache hit). The gap is the cache's payoff when
// the health matrix is stable between consecutive routes of the same job.
func BenchmarkAblationResynthesisCache(b *testing.B) {
	cfg := chip.Default()
	src := randx.New(7)
	c, err := chip.New(cfg, src)
	if err != nil {
		b.Fatal(err)
	}
	job := route.RJ{
		Start:  meda.Rect{XA: 10, YA: 10, XB: 13, YB: 13},
		Goal:   meda.Rect{XA: 30, YA: 15, XB: 33, YB: 18},
		Hazard: meda.Rect{XA: 7, YA: 7, XB: 36, YB: 21},
	}
	// Degrade the hazard region so the offline-library fast path does not
	// apply and routing goes through online synthesis + cache.
	for i := 0; i < 3000; i++ {
		c.Actuate(job.Hazard)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := sched.NewAdaptive(sched.DefaultCacheSize)
			if _, _, err := a.Route(job, c, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		a := sched.NewAdaptive(sched.DefaultCacheSize)
		if _, _, err := a.Route(job, c, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := a.Route(job, c, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Core micro-benchmarks ------------------------------------------------

// BenchmarkSimulationExecution measures one full bioassay execution.
func BenchmarkSimulationExecution(b *testing.B) {
	cfg := chip.Default()
	plan, err := meda.CompileBenchmark(meda.MasterMix, cfg, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := randx.New(uint64(i))
		c, err := chip.New(cfg, src.Split("chip"))
		if err != nil {
			b.Fatal(err)
		}
		runner := sim.NewRunner(sim.DefaultConfig(), c, sched.NewBaseline(), src.Split("sim"))
		if _, err := runner.Execute(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelConstruction isolates the Induce step of Table V's
// construction column (30×30 area, 4×4 droplet).
func BenchmarkModelConstruction(b *testing.B) {
	worn := func(x, y int) float64 { return 0.81 }
	for i := 0; i < b.N; i++ {
		_, err := smg.Induce(
			meda.Rect{XA: 1, YA: 1, XB: 30, YB: 30},
			meda.Rect{XA: 1, YA: 1, XB: 4, YB: 4},
			meda.Rect{XA: 27, YA: 27, XB: 30, YB: 30},
			worn, smg.DefaultModelOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationActivationOrder explores the paper's future-work
// direction (runtime operation ordering): FIFO activation vs wear-aware
// (healthiest-zone-first) activation over six chip-reuse runs.
func BenchmarkAblationActivationOrder(b *testing.B) {
	for _, wearAware := range []bool{false, true} {
		name := "fifo"
		if wearAware {
			name = "healthiest-first"
		}
		b.Run(name, func(b *testing.B) {
			var lastCycles int
			for i := 0; i < b.N; i++ {
				src := randx.New(uint64(31 + i))
				cfg := chip.Default()
				c, err := chip.New(cfg, src.Split("chip"))
				if err != nil {
					b.Fatal(err)
				}
				plan, err := meda.CompileBenchmark(meda.SerialDilution, cfg, 16)
				if err != nil {
					b.Fatal(err)
				}
				simCfg := sim.DefaultConfig()
				simCfg.WearAwareActivation = wearAware
				runner := sim.NewRunner(simCfg, c, sched.NewAdaptive(sched.DefaultCacheSize), src.Split("sim"))
				for e := 0; e < 6; e++ {
					exec, err := runner.Execute(plan)
					if err != nil {
						b.Fatal(err)
					}
					lastCycles = exec.Cycles
				}
			}
			b.ReportMetric(float64(lastCycles), "cycles-run6")
		})
	}
}

// BenchmarkAblationRecovery races the three fault-handling postures of the
// extension experiment on one fault-heavy chip (see EXPERIMENTS.md).
func BenchmarkAblationRecovery(b *testing.B) {
	variants := []struct {
		name     string
		adaptive bool
		recovery bool
	}{
		{"baseline", false, false},
		{"reactive", false, true},
		{"adaptive", true, false},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				src := randx.New(uint64(41 + i))
				cfg := chip.Default()
				cfg.Faults = meda.FaultPlan{
					Mode: meda.FaultClustered, Fraction: 0.35, FailAfterLo: 2, FailAfterHi: 30,
				}
				c, err := chip.New(cfg, src.Split("chip"))
				if err != nil {
					b.Fatal(err)
				}
				plan, err := meda.CompileBenchmark(meda.SerialDilution, cfg, 16)
				if err != nil {
					b.Fatal(err)
				}
				simCfg := sim.DefaultConfig()
				if v.recovery {
					simCfg.Recovery = sim.DefaultRecovery()
				}
				var router sched.Router = sched.NewBaseline()
				if v.adaptive {
					router = sched.NewAdaptive(sched.DefaultCacheSize)
				}
				runner := sim.NewRunner(simCfg, c, router, src.Split("sim"))
				exec, err := runner.Execute(plan)
				if err != nil {
					b.Fatal(err)
				}
				cycles = exec.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}
