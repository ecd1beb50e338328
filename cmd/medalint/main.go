// Command medalint is the repository's domain-specific static checker. It
// has two modes, covering the two halves of the framework's correctness
// story that the Go type system cannot see:
//
// Source mode (the default) runs the eight-analyzer medalint suite —
// floatcmp, lockorder, nilstrategy, errflow, lockheld, goroutineleak,
// waitgroup, hotalloc — over Go packages, analyzing every package from source, and
// prints compiler-style findings, or with -json one JSON object per
// finding per line (pos, analyzer, message) for machine consumption.
// -sarif additionally writes the findings as a SARIF 2.1.0 log for GitHub
// code scanning, -timing prints per-analyzer wall time, and -strict adds
// the errflowstrict dropped-error analyzer (the cmd/ audit mode; -strict
// -list lists it too):
//
//	medalint ./...
//	medalint -json ./...
//	medalint -sarif out.sarif ./...
//	medalint -timing ./...
//	medalint -strict ./cmd/...
//	medalint -list
//
// Model mode verifies the statically checkable invariants of the synthesis
// pipeline itself: it compiles the six evaluation bioassays (Table IV),
// induces every routing job's MDP under a healthy and a uniformly worn
// force field, solves the paper's Rmin and Pmax queries, and checks
// row-stochasticity, dangling transition targets, reverse-edge index
// consistency, strategy totality over reachable states, and hazard closure
// (see internal/modelcheck):
//
//	medalint -models
//
// Both modes exit 1 when anything is found, 2 on usage or load errors, so
// they can gate CI (see make lint / make models).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"meda"
	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/lint"
	"meda/internal/lint/analysis"
	"meda/internal/mdp"
	"meda/internal/modelcheck"
	"meda/internal/smg"
	"meda/internal/synth"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line")
	sarifOut := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	timing := flag.Bool("timing", false, "print per-analyzer wall time to stderr")
	strict := flag.Bool("strict", false, "add the errflowstrict dropped-error analyzer (cmd audit)")
	models := flag.Bool("models", false, "verify model invariants over the six benchmark assays instead of linting source")
	area := flag.Int("area", 16, "dispensed-droplet area for -models compilation")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: medalint [packages]   # lint source (default ./...)\n")
		fmt.Fprintf(flag.CommandLine.Output(), "       medalint -models      # verify benchmark model invariants\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *strict {
		analyzers = append(analyzers, lint.ErrFlowStrict)
	}
	switch {
	case *list:
		for _, a := range analyzers {
			fmt.Printf("%-13s %s\n", a.Name, firstLine(a.Doc))
		}
	case *models:
		if !checkModels(*area) {
			os.Exit(1)
		}
	default:
		patterns := flag.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		findings, timings, err := lint.Run(".", patterns, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "medalint: %v\n", err)
			os.Exit(2)
		}
		for _, f := range findings {
			if *jsonOut {
				printJSON(f)
			} else {
				fmt.Println(f)
			}
		}
		if *sarifOut != "" {
			if err := writeSARIFFile(*sarifOut, findings, analyzers); err != nil {
				fmt.Fprintf(os.Stderr, "medalint: %v\n", err)
				os.Exit(2)
			}
		}
		if *timing {
			total := 0.0
			for _, tm := range timings {
				fmt.Fprintf(os.Stderr, "%-13s %8.3fs\n", tm.Analyzer, tm.Seconds)
				total += tm.Seconds
			}
			fmt.Fprintf(os.Stderr, "%-13s %8.3fs\n", "total", total)
		}
		if len(findings) > 0 {
			os.Exit(1)
		}
	}
}

// jsonFinding is the machine-readable shape of one finding; one object is
// emitted per line so stream consumers need no closing bracket.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(f lint.Finding) {
	out, err := json.Marshal(jsonFinding{
		File:     f.Pos.Filename,
		Line:     f.Pos.Line,
		Column:   f.Pos.Column,
		Analyzer: f.Analyzer,
		Message:  f.Message,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "medalint: encoding finding: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
}

// writeSARIFFile writes the findings as a SARIF log, fsyncing through the
// usual create/close error paths.
func writeSARIFFile(path string, findings []lint.Finding, analyzers []*analysis.Analyzer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	wd, err := os.Getwd()
	if err != nil {
		wd = "."
	}
	if err := lint.WriteSARIF(f, findings, analyzers, wd); err != nil {
		//lint:ignore errflowstrict the write error below already aborts; the close error cannot add anything
		f.Close()
		return err
	}
	return f.Close()
}

func firstLine(s string) string {
	for i, r := range s {
		if r == '\n' {
			return s[:i]
		}
	}
	return s
}

// fields pairs a force-field fidelity with a label for reporting. The worn
// field mirrors the solver regression suite: a uniform health code of 2
// under default 2-bit sensing reads back as 0.9² relative force.
var fields = []struct {
	name  string
	field func(x, y int) float64
}{
	{"healthy", func(x, y int) float64 { return 1 }},
	{"worn", func(x, y int) float64 { return 0.81 }},
}

// checkModels compiles each evaluation benchmark and verifies every routing
// job's induced MDP, solved strategies and value vectors. It reports one
// summary line per assay and every violation in full, returning false if
// any model failed.
func checkModels(area int) bool {
	cfg := chip.Default()
	ok := true
	for _, bench := range assay.EvaluationBenchmarks {
		plan, err := meda.CompileBenchmark(bench, cfg, area)
		if err != nil {
			fmt.Fprintf(os.Stderr, "medalint: compiling %v: %v\n", bench, err)
			ok = false
			continue
		}
		jobs, states, bad := 0, 0, 0
		for _, mo := range plan.MOs {
			for _, rj := range mo.Jobs {
				rj = synth.NormalizeDispense(rj, cfg.W, cfg.H)
				jobs++
				for _, f := range fields {
					vs, n, err := checkJob(rj, f.field)
					if err != nil {
						fmt.Fprintf(os.Stderr, "medalint: %v %s (%s): %v\n", bench, rj.Name(), f.name, err)
						ok = false
						continue
					}
					states += n
					for _, v := range vs {
						fmt.Printf("%v %s (%s): %s\n", bench, rj.Name(), f.name, v)
					}
					bad += len(vs)
				}
			}
		}
		fmt.Printf("medalint: %-10v %3d jobs, %7d states checked, %d violations\n", bench, jobs, states, bad)
		if bad > 0 {
			ok = false
		}
	}
	return ok
}

// checkJob induces one routing job's MDP and runs every modelcheck
// invariant over the model, the Rmin and Pmax strategies, and the solved
// value vectors, returning the violations and the model's state count.
func checkJob(rj meda.RoutingJob, field func(x, y int) float64) ([]modelcheck.Violation, int, error) {
	model, err := smg.Induce(rj.Hazard, rj.Start, rj.Goal, field, smg.DefaultModelOptions())
	if err != nil {
		return nil, 0, err
	}
	vs := modelcheck.CheckReduced(model, nil, rj.Hazard)
	for _, v := range vs {
		if v.Check == "dangling-target" {
			// The solvers would index out of range; don't run them.
			return vs, model.M.NumStates(), nil
		}
	}
	rmin, err := model.M.MinExpectedReward(model.Goal, model.Hazard, mdp.SolveOptions{})
	if err != nil {
		return vs, model.M.NumStates(), err
	}
	vs = append(vs, modelcheck.CheckStrategy(model.M, rmin.Strategy, model.Init, model.Goal, model.Hazard)...)
	vs = append(vs, modelcheck.CheckValues(rmin.Values, false)...)

	pmax, err := model.M.MaxReachProb(model.Goal, model.Hazard, mdp.SolveOptions{})
	if err != nil {
		return vs, model.M.NumStates(), err
	}
	vs = append(vs, modelcheck.CheckStrategy(model.M, pmax.Strategy, model.Init, model.Goal, model.Hazard)...)
	vs = append(vs, modelcheck.CheckValues(pmax.Values, true)...)
	return vs, model.M.NumStates(), nil
}
