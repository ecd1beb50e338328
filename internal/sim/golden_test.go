package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/fault"
	"meda/internal/geom"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
)

// goldenRun describes one recorded execution scenario: chip, router and
// executor configuration, the plan, and how many times to execute it on the
// same Runner (chip reuse).
type goldenRun struct {
	chip   chip.Config
	router func() sched.Router
	cfg    Config
	plan   func(t *testing.T) *route.Plan
	seed   uint64
	runs   int
}

// transcript executes the scenario and returns its byte-exact record: every
// cycle's hook patterns (as simTraceMode writes them), every Execution field
// after each run, and the final health hash over the whole array.
func (g goldenRun) transcript(t *testing.T) []byte {
	t.Helper()
	src := randx.New(g.seed)
	c, err := chip.New(g.chip, src.Split("chip"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(g.cfg, c, g.router(), src.Split("sim"))
	var buf bytes.Buffer
	r.Hook = func(k int, ps []geom.Rect) {
		fmt.Fprintf(&buf, "%d:", k)
		for _, p := range ps {
			fmt.Fprintf(&buf, " %v", p)
		}
		buf.WriteByte('\n')
	}
	plan := g.plan(t)
	runs := g.runs
	if runs == 0 {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		exec, err := r.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%+v\n", exec)
	}
	fmt.Fprintf(&buf, "health=%016x\n", c.HealthHash(c.Bounds()))
	return buf.Bytes()
}

// goldenTraces is the committed SHA-256 of each scenario's transcript. It
// was recorded before the executor loop was split into phases and must not
// be edited: a mismatch means the executor's behaviour changed.
var goldenTraces = map[string]string{
	"CEP/con":                      "d7c01618cc1e381a2f3051b5d719272f9896495f04f573054251b27a41c5cfb9",
	"CEP/seq":                      "7c6552287a60b57b7d79ef96653dd9bb7097b54e661a1d018d86d97559cb950a",
	"COVID-PCR/con":                "e63c9c4d3f31eb63ba2b843fc018add82b73267e1d01a0b56581d3776070e9ea",
	"COVID-PCR/seq":                "567a8cc59f39b14745bb253777437fa745efef437ee52c5ecf7271ec0f986549",
	"COVID-RAT/con":                "82f886ee6636fa6bc9b8aa8e4e1662b65f1f991e4ac8e148dd3eff924b6f660c",
	"COVID-RAT/seq":                "82f886ee6636fa6bc9b8aa8e4e1662b65f1f991e4ac8e148dd3eff924b6f660c",
	"Master-Mix/con":               "b99a54fdc53636f58125a8724350e21d4b1b8caad936df387e19f78da9ae84f6",
	"Master-Mix/seq":               "291a421f867d4e65882832fb03e8a86d101b34a7f4e673d0d871489553fa7714",
	"NuIP/con":                     "aebbf92777c533f8e1287392b0e60c582b030a35d84576172c258fd4261fd17c",
	"NuIP/seq":                     "7176d2ab6d4fd5f18113cc90a766ff8c266bf25d0a1564b96c91b314f1e1e57f",
	"Serial-Dilution/con":          "62d5d4891f4a89e13890e40abd67b5a9d61905de569d7674131b9a244f80985c",
	"Serial-Dilution/seq":          "74cdd0f2c083de9ca64b43826e40a3158da95ea44c5cc8b0bc2bcf9feaf3b158",
	"deadlock/CyclicWait3/con":     "dcb6bd0b9c2bf2942713b66cb47f18554d244720ad5678db126102f0ffff3275",
	"faults/CEP/seq":               "a4da5f07ef553b51ec3307f94583574dbbbaf11643905349770878935a832d75",
	"faults/Master-Mix/seq":        "4a24ef41eaf47cd5682876998f031f01912b6d135c3f064c3190e75ead2dd89f",
	"faults/Serial-Dilution/con":   "1d6a79f93d44de1bd3dad81ccf9a9273ba005fda74ac40f44c17fc9c54bb2136",
	"recovery/Master-Mix/seq":      "2c1ef006f13dcb2bdd3e323f7855542103662d6088c1910534146a7818569001",
	"recovery/Serial-Dilution/con": "6770f76d715acd52a9bdf43c00327180e7f0c3664e8866880484fc27e654fc47",
	"reuse/Serial-Dilution/con":    "8d1a261f772d0b7e776a14942d4ca07f3dbb50f3dfd56caf546338499da43d47",
}

func goldenRuns() map[string]goldenRun {
	adaptive := func() sched.Router { return sched.NewAdaptive(sched.DefaultCacheSize) }
	ladder := func() sched.Router {
		return sched.NewFallback(sched.NewAdaptive(sched.DefaultCacheSize), sched.NewBaseline())
	}
	baseline := func() sched.Router { return sched.NewBaseline() }
	bench := func(b assay.Benchmark) func(t *testing.T) *route.Plan {
		return func(t *testing.T) *route.Plan { return compile(t, b, 16) }
	}
	mode := map[bool]string{false: "seq", true: "con"}

	runs := map[string]goldenRun{}
	for _, b := range assay.EvaluationBenchmarks {
		for _, concurrent := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Concurrent = concurrent
			runs[fmt.Sprintf("%v/%s", b, mode[concurrent])] = goldenRun{
				chip: robustChipConfig(), router: adaptive, cfg: cfg, plan: bench(b), seed: 42,
			}
		}
	}

	// Soft-fault injection under the graceful-degradation ladder: once with
	// the adaptive router on a sound chip, and twice with the health-blind
	// baseline over clustered hard faults, where divergence tracking and
	// per-MO deadlines demote jobs to the final tier.
	faulty := func(b assay.Benchmark, cc chip.Config, router func() sched.Router, seed uint64, concurrent bool) {
		cfg := DefaultConfig().WithFaults(fault.Mixed(seed, 0.05, fault.AllKinds))
		cfg.Concurrent = concurrent
		runs[fmt.Sprintf("faults/%v/%s", b, mode[concurrent])] = goldenRun{
			chip: cc, router: router, cfg: cfg, plan: bench(b), seed: seed,
		}
	}
	clustered := robustChipConfig()
	clustered.Faults = degrade.FaultPlan{
		Mode: degrade.FaultClustered, Fraction: 0.15, FailAfterLo: 1, FailAfterHi: 30,
	}
	blindLadder := func() sched.Router { return sched.NewFallback(sched.NewBaseline(), sched.NewBaseline()) }
	faulty(assay.MasterMix, robustChipConfig(), ladder, 2021, false)
	faulty(assay.CEP, clustered, blindLadder, 3, false)
	faulty(assay.SerialDilution, clustered, blindLadder, 3, true)

	// Roll-back recovery on chips whose clustered hard faults fail at once,
	// so the health-blind baseline stalls and the controller must intervene.
	recovering := func(b assay.Benchmark, seed uint64, concurrent bool) {
		cc := robustChipConfig()
		cc.Faults = degrade.FaultPlan{
			Mode: degrade.FaultClustered, Fraction: 0.3, FailAfterLo: 1, FailAfterHi: 2,
		}
		cfg := DefaultConfig()
		cfg.Recovery = DefaultRecovery()
		cfg.KMax = 600
		cfg.Concurrent = concurrent
		runs[fmt.Sprintf("recovery/%v/%s", b, mode[concurrent])] = goldenRun{
			chip: cc, router: baseline, cfg: cfg, plan: bench(b), seed: seed,
		}
	}
	recovering(assay.MasterMix, 4, false)
	recovering(assay.SerialDilution, 6, true)

	// Chip reuse: two executions on one Runner over a wearing chip.
	reuse := DefaultConfig()
	reuse.Concurrent = true
	runs["reuse/"+assay.SerialDilution.String()+"/con"] = goldenRun{
		chip: chip.Default(), router: adaptive, cfg: reuse, plan: bench(assay.SerialDilution), seed: 7, runs: 2,
	}

	// A corridor head-on meeting: the concurrent executor's deadlock
	// detection and victim serialization.
	corridor := DefaultConfig()
	corridor.KMax = 2000
	corridor.CheckHazards = true
	corridor.Concurrent = true
	cc := robustChipConfig()
	cc.W, cc.H = 40, 6
	runs["deadlock/CyclicWait3/con"] = goldenRun{
		chip: cc, router: baseline, cfg: corridor, seed: 7,
		plan: func(t *testing.T) *route.Plan {
			plan, err := route.Compile(corridorAssay("CyclicWait3", []corridorOp{
				{fromX: 6, toX: 27}, {fromX: 20, toX: 12}, {fromX: 34, toX: 20},
			}), 40, 6)
			if err != nil {
				t.Fatal(err)
			}
			return plan
		},
	}
	return runs
}

// TestGoldenTraces pins the executor's exact behaviour: each scenario's
// transcript must hash to its committed value. Unlike the determinism tests,
// which compare a run with itself, this catches a refactor that changes what
// the executor does.
func TestGoldenTraces(t *testing.T) {
	for name, g := range goldenRuns() {
		g := g
		t.Run(name, func(t *testing.T) {
			sum := sha256.Sum256(g.transcript(t))
			got := hex.EncodeToString(sum[:])
			want, ok := goldenTraces[name]
			if !ok {
				t.Fatalf("no golden hash recorded; got %s", got)
			}
			if got != want {
				t.Errorf("transcript hash %s, want %s", got, want)
			}
		})
	}
}
