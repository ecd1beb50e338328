GO ?= go

.PHONY: build test race vet fmtcheck lint models assert cover fuzz verify bench benchgate faulttrial ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fail if any file needs reformatting (gofmt prints the offenders).
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Domain-specific static analysis: the eight-analyzer medalint suite
# over the whole tree, plus the strict dropped-error audit over the
# command mains (see internal/lint and DESIGN.md §7/§13).
lint:
	$(GO) run ./cmd/medalint ./...
	$(GO) run ./cmd/medalint -strict ./cmd/...

# Static model-invariant verification over the six benchmark assays:
# row-stochasticity, dangling targets, reverse-index consistency, strategy
# totality, hazard closure (internal/modelcheck).
models:
	$(GO) run ./cmd/medalint -models

# Run the solver/synthesis tests with the medacheck build tag, which turns
# on model validation at every solver entry, full reduced-model
# verification after every synthesis, and a full-synthesis cross-check, at
# the default solver options, of every job solved on the all-healthy unit
# path. The executor and root
# packages are included so the golden-trace and differential suites route
# every window they meet through those checks; internal/serve so that the
# strategies one fleet tenant is served from another's syntheses (raw,
# canonical and obstructed Cache hits, Library hits) are re-derived too.
# The tag also recomputes every actuated cell's latched health code in
# internal/chip, and makes the executor re-hash every job window while the
# chip's health stamp has not moved.
assert:
	$(GO) test -tags medacheck ./internal/chip/ ./internal/mdp/ ./internal/smg/ ./internal/synth/ ./internal/modelcheck/ ./internal/sched/ ./internal/sim/ ./internal/serve/ .

# Coverage floors for the packages this repo leans on hardest. Floors sit
# well below current coverage so they trip on real regressions, not on
# noise. Coverage when the modelcheck floor was added: telemetry 98.1%,
# mdp 95.9%, sched 94.2%, synth 93.5%, sim 96.0%, smg 97.2%, action 97.0%,
# modelcheck 89.8%, lint 93.5%, lint/cfg 91.5%, lint/dataflow 98.6%,
# lint/callgraph 83.9%, lint/summary 83.6%; chip 92.5%, degrade 91.9% when
# their floors were added.
cover:
	@set -e; \
	check() { \
	  pct="$$($(GO) test -cover $$1 | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p')"; \
	  if [ -z "$$pct" ]; then echo "$$1: no coverage output"; exit 1; fi; \
	  ok="$$(awk -v p="$$pct" -v f="$$2" 'BEGIN { print (p >= f) ? 1 : 0 }')"; \
	  if [ "$$ok" != 1 ]; then echo "$$1: coverage $$pct% below floor $$2%"; exit 1; fi; \
	  echo "$$1: coverage $$pct% (floor $$2%)"; \
	}; \
	check ./internal/telemetry/ 90; \
	check ./internal/mdp/ 80; \
	check ./internal/sched/ 80; \
	check ./internal/synth/ 80; \
	check ./internal/sim/ 85; \
	check ./internal/smg/ 85; \
	check ./internal/action/ 85; \
	check ./internal/chip/ 85; \
	check ./internal/degrade/ 85; \
	check ./internal/modelcheck/ 80; \
	check ./internal/lint/ 80; \
	check ./internal/lint/cfg/ 80; \
	check ./internal/lint/dataflow/ 80; \
	check ./internal/lint/callgraph/ 80; \
	check ./internal/lint/summary/ 80

# Short fuzz bursts over every fuzz target (parser robustness, print/parse
# round trips, solver bit-identity, WebSocket frame decoding in both roles,
# journal replay, REST request bodies). Each target needs its own invocation: -fuzz accepts
# exactly one matching target per package.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/spec/ -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/spec/ -run '^$$' -fuzz '^FuzzQueryString$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dsl/ -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dsl/ -run '^$$' -fuzz '^FuzzParseStability$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim/ -run '^$$' -fuzz '^FuzzHazardZones$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mdp/ -run '^$$' -fuzz '^FuzzSolveExact$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ws/ -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime $(FUZZTIME)

# One deterministic fault-injection trial per evaluation assay: 5% mixed
# fault rate, all fault classes, asserting hazard-free completion and
# bounded completion-time inflation — once on the sequential executor, once
# on the concurrent one. CI's cover-fuzz job runs this; the nightly workflow
# runs the full three-trial sweep.
faulttrial:
	$(GO) run ./cmd/medafuzz -trials 1 -seed 2021 -rate 0.05 -kinds all
	$(GO) run ./cmd/medafuzz -trials 1 -seed 2021 -rate 0.05 -kinds all -concurrent

# Tier-1 verification plus the race detector and the static checkers.
verify: build vet fmtcheck test race lint models assert cover

# Everything the CI workflow gates on, in one local target.
ci: verify fuzz faulttrial

# Synthesis-engine benchmarks with allocation stats; results are recorded in
# BENCH_synthesis.json so the performance trajectory is tracked across PRs.
# Override BENCH_OUT to write a candidate report elsewhere (the CI bench
# gate does, then diffs it against the committed baseline with benchdiff).
BENCH_OUT ?= BENCH_synthesis.json
bench:
	$(GO) run ./cmd/medabench -out $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'BenchmarkAblationResynthesisCache' -benchmem .

# Local bench-regression gate: regenerate the report into a scratch file and
# compare it against the committed baseline (warn +25%, fail 2x).
benchgate:
	$(GO) run ./cmd/medabench -out /tmp/meda-bench-new.json
	$(GO) run ./cmd/benchdiff -base BENCH_synthesis.json -new /tmp/meda-bench-new.json
