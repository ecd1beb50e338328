// Command benchdiff compares two medabench reports (BENCH_synthesis.json)
// and gates on ns/op and allocs/op regressions: benchmarks beyond the warn
// threshold are reported, and any benchmark beyond the fail threshold makes
// the command exit nonzero. CI runs it against the committed baseline on
// every pull request — warn-only inside the noise band of shared runners,
// hard failure on step-change regressions. Alloc gating additionally
// requires the regression to add more than a handful of allocations per op,
// so a fixed cost growing from 1 to 2 allocs does not trip the 2x gate.
//
//	benchdiff -base BENCH_synthesis.json -new /tmp/bench.json
//	benchdiff -base BENCH_synthesis.json -new /tmp/bench.json -warn 0.25 -fail 2.0 -out diff.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type report struct {
	Benchmarks []struct {
		Name     string  `json:"name"`
		NsPerOp  float64 `json:"ns_per_op"`
		NsSpread float64 `json:"ns_spread"` // max − min ns/op of the row's runs; 0 in older reports
		BytesOp  int64   `json:"bytes_per_op"`
		AllocsOp int64   `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return r, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return r, nil
}

// run is the testable body of main: it returns the process exit code
// (0 = within tolerance or warn-only, 1 = hard regression, 2 = usage or
// input error).
func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	base := fs.String("base", "BENCH_synthesis.json", "baseline report (committed)")
	next := fs.String("new", "", "candidate report to compare against the baseline")
	warn := fs.Float64("warn", 0.25, "warn when ns/op or allocs/op regresses by more than this fraction")
	fail := fs.Float64("fail", 2.0, "fail when ns/op or allocs/op regresses to more than this multiple of the baseline")
	outFile := fs.String("out", "", "also write the comparison to this file (CI artifact)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *next == "" {
		fmt.Fprintln(errw, "benchdiff: -new is required")
		return 2
	}
	baseRep, err := readReport(*base)
	if err != nil {
		fmt.Fprintf(errw, "benchdiff: %v\n", err)
		return 2
	}
	newRep, err := readReport(*next)
	if err != nil {
		fmt.Fprintf(errw, "benchdiff: %v\n", err)
		return 2
	}

	type row struct {
		ns, spread float64
		allocs     int64
	}
	baseline := make(map[string]row, len(baseRep.Benchmarks))
	for _, b := range baseRep.Benchmarks {
		baseline[b.Name] = row{ns: b.NsPerOp, allocs: b.AllocsOp}
	}

	writers := []io.Writer{out}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintf(errw, "benchdiff: %v\n", err)
			return 2
		}
		defer f.Close()
		writers = append(writers, f)
	}
	w := io.MultiWriter(writers...)

	names := make([]string, 0, len(newRep.Benchmarks))
	news := make(map[string]row, len(newRep.Benchmarks))
	for _, b := range newRep.Benchmarks {
		names = append(names, b.Name)
		news[b.Name] = row{ns: b.NsPerOp, spread: b.NsSpread, allocs: b.AllocsOp}
	}
	sort.Strings(names)

	// A fixed cost of a few allocations doubling is not a regression worth
	// failing CI over; alloc ratios only gate when the absolute increase
	// exceeds this slack.
	const allocSlack = 8

	warned, failed := 0, 0
	fmt.Fprintf(w, "%-40s %14s %14s %8s %8s %12s %12s %8s\n",
		"benchmark", "base ns/op", "new ns/op", "spread", "ratio", "base allocs", "new allocs", "ratio")
	for _, name := range names {
		nb := news[name]
		// spread is the new row's half-range as a share of its ns/op: how
		// far its runs strayed from the median either way.
		spread := "-"
		if nb.spread > 0 && nb.ns > 0 {
			spread = fmt.Sprintf("±%.1f%%", 50*nb.spread/nb.ns)
		}
		ob, ok := baseline[name]
		if !ok || ob.ns <= 0 {
			fmt.Fprintf(w, "%-40s %14s %14.0f %8s %8s %12s %12d %8s  (no baseline)\n",
				name, "-", nb.ns, spread, "-", "-", nb.allocs, "-")
			continue
		}
		nsRatio := nb.ns / ob.ns
		allocRatio := 1.0
		if ob.allocs > 0 {
			allocRatio = float64(nb.allocs) / float64(ob.allocs)
		} else if nb.allocs > allocSlack {
			allocRatio = float64(nb.allocs) // 0 → n allocs: treat n as the ratio
		}
		allocDelta := nb.allocs - ob.allocs
		status := ""
		switch {
		case nsRatio > *fail,
			allocRatio > *fail && allocDelta > allocSlack:
			status = "  FAIL"
			failed++
		case nsRatio > 1+*warn,
			allocRatio > 1+*warn && allocDelta > allocSlack:
			status = "  WARN"
			warned++
		case nsRatio < 1/(1+*warn):
			status = "  improved"
		}
		fmt.Fprintf(w, "%-40s %14.0f %14.0f %8s %7.2fx %12d %12d %7.2fx%s\n",
			name, ob.ns, nb.ns, spread, nsRatio, ob.allocs, nb.allocs, allocRatio, status)
	}
	for name := range baseline {
		if _, ok := news[name]; !ok {
			fmt.Fprintf(w, "%-40s  missing from new report\n", name)
			warned++
		}
	}
	fmt.Fprintf(w, "\n%d benchmarks, %d warnings (> +%.0f%%), %d failures (> %.1fx ns/op or allocs/op)\n",
		len(names), warned, *warn*100, failed, *fail)
	if failed > 0 {
		fmt.Fprintf(errw, "benchdiff: %d benchmark(s) regressed beyond %.1fx\n", failed, *fail)
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
