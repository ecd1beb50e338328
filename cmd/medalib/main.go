// Command medalib manages offline strategy libraries (Alg. 3): it
// pre-synthesizes healthy-chip routing strategies for a bioassay's routing
// jobs and saves them as JSON, and it can inspect an existing library.
//
//	medalib -assay serial-dilution -o serial-dilution.lib.json
//	medalib -inspect serial-dilution.lib.json
package main

import (
	"flag"
	"fmt"
	"os"

	"meda"
	"meda/internal/sched"
	"meda/internal/synth"
)

func main() {
	assayName := flag.String("assay", "", "bioassay to pre-synthesize strategies for")
	out := flag.String("o", "", "output library file (default: <assay>.lib.json)")
	area := flag.Int("area", 16, "dispensed droplet area")
	inspect := flag.String("inspect", "", "print a summary of an existing library file")
	flag.Parse()

	if *inspect != "" {
		if err := inspectLib(*inspect); err != nil {
			fmt.Fprintf(os.Stderr, "medalib: %v\n", err)
			os.Exit(1)
		}
		return
	}
	bench, ok := meda.ParseBenchmark(*assayName)
	if !ok {
		fmt.Fprintln(os.Stderr, "medalib: -assay must name a benchmark bioassay (or use -inspect)")
		os.Exit(2)
	}
	plan, err := meda.CompileBenchmark(bench, meda.DefaultChipConfig(), *area)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medalib: %v\n", err)
		os.Exit(1)
	}
	lib := sched.NewLibrary()
	added, err := lib.Presynthesize(plan, synth.DefaultOptions())
	if err != nil {
		fmt.Fprintf(os.Stderr, "medalib: %v\n", err)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = *assayName + ".lib.json"
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medalib: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := lib.Save(f); err != nil {
		fmt.Fprintf(os.Stderr, "medalib: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("pre-synthesized %d strategies for %s (%d routing jobs) → %s\n",
		added, bench, plan.TotalJobs(), path)
}

func inspectLib(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	lib := sched.NewLibrary()
	if err := lib.Load(f); err != nil {
		return err
	}
	_, _, size := lib.Stats()
	fmt.Printf("%s: %d pre-synthesized strategies\n", path, size)
	return nil
}
