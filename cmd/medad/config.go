// Flag parsing and configuration for medad, split from the wiring in
// main.go so each serving mode (device protocol, fleet API) reads one
// config struct instead of a pile of globals.
package main

import (
	"flag"
	"fmt"
	"time"

	"meda"
)

// config is everything the daemon needs, resolved from flags.
type config struct {
	// Device-protocol mode (internal/device, newline-delimited JSON over
	// TCP). Empty disables.
	listenAddr string
	seed       uint64
	chipCfg    meda.ChipConfig
	faults     string
	statePath  string

	// Debug HTTP (metrics + pprof). Empty disables.
	httpAddr string

	// Fleet-service mode (internal/serve, REST + WebSocket). Empty
	// disables.
	apiAddr         string
	dataDir         string
	snapshotEvery   time.Duration
	maxConcurrent   int
	checkpointEvery int
}

// parseFlags parses argv (without the program name) into a config.
func parseFlags(argv []string) (config, error) {
	fs := flag.NewFlagSet("medad", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7070", "device-protocol TCP address (empty disables the single-chip device mode)")
	seed := fs.Uint64("seed", 2021, "chip seed for the device-mode chip")
	faults := fs.String("faults", "none", "device-mode hard-fault injection: none, uniform, clustered")
	fraction := fs.Float64("fraction", 0.12, "fraction of faulty microelectrodes")
	state := fs.String("state", "", "device-mode chip state file: loaded at start if present, saved on interrupt (wear persists)")
	httpAddr := fs.String("http", "127.0.0.1:7071", "debug HTTP address serving /metrics and /debug/pprof/ (empty disables)")
	apiAddr := fs.String("api", "", "fleet-service HTTP address (REST + WebSocket; empty disables)")
	dataDir := fs.String("data", "", "fleet-service data directory for snapshot+journal persistence (empty runs ephemerally)")
	snapshotEvery := fs.Duration("snapshot-every", 30*time.Second, "fleet-service periodic snapshot interval (0 disables periodic snapshots)")
	maxConcurrent := fs.Int("max-concurrent", 0, "fleet-wide bound on concurrently executing assays (0 = GOMAXPROCS)")
	checkpointEvery := fs.Int("checkpoint-every", 16, "cycles between execution checkpoints (progress events and cancellation)")
	if err := fs.Parse(argv); err != nil {
		return config{}, err
	}

	cfg := config{
		listenAddr:      *listen,
		seed:            *seed,
		faults:          *faults,
		statePath:       *state,
		httpAddr:        *httpAddr,
		apiAddr:         *apiAddr,
		dataDir:         *dataDir,
		snapshotEvery:   *snapshotEvery,
		maxConcurrent:   *maxConcurrent,
		checkpointEvery: *checkpointEvery,
	}
	cfg.chipCfg = meda.DefaultChipConfig()
	switch *faults {
	case "none":
	case "uniform":
		cfg.chipCfg.Faults = meda.FaultPlan{Mode: meda.FaultUniform, Fraction: *fraction, FailAfterLo: 10, FailAfterHi: 120}
	case "clustered":
		cfg.chipCfg.Faults = meda.FaultPlan{Mode: meda.FaultClustered, Fraction: *fraction, FailAfterLo: 10, FailAfterHi: 120}
	default:
		return config{}, fmt.Errorf("-faults must be none, uniform, or clustered")
	}
	if cfg.listenAddr == "" && cfg.apiAddr == "" {
		return config{}, fmt.Errorf("nothing to serve: set -listen (device protocol) and/or -api (fleet service)")
	}
	return cfg, nil
}
