# Tier-1 verification and perf tooling for the hetpnoc simulator.
#
#   make check   — build, vet, lint (hetpnoclint), full test suite, a
#                  race-enabled run of everything, and bench-check (the
#                  CI gate)
#   make lint    — run the 9-analyzer suite (cmd/hetpnoclint, see
#                  docs/ANALYSIS.md)
#   make lint-fix — apply the suite's machine-applicable fixes in place
#                  (run `make lint-dry` first to preview)
#   make test    — fast test pass only
#   make fuzz-smoke — 10s-per-target native fuzz pass (CI smoke gate)
#   make bench-check — vet, test and smoke-run the bench/ module (the
#                  BENCHMARK.json load generator), which root `go test
#                  ./...` cannot see
#   make bench-smoke — compile and run the router/fabric/batch/token
#                  microbenchmarks, a shelved Run and a /v1/run cache hit
#                  at 200 iterations each, and the /v1/sweep benchmark at
#                  3 (CI keeps them from rotting)
#   make sweep   — quick smoke sweep of every figure

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build vet lint lint-fix lint-dry lint-update test race race-quick fuzz-smoke bench-check bench-smoke sweep

check: build vet lint test race bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# hetpnoclint enforces the simulator's determinism, hot-path,
# checkpoint-coverage and API-stability invariants with 9 analyzers: the
# per-package ones (maprange, globalstate, ctxflow, errsink), the
# whole-program layer (hotpathreach, dettaint), the compiler-evidence
# layer (allocproof, snapcover) and apistable; any undirected violation
# exits non-zero. Lock discipline, goroutine lifetime, channel and
# WaitGroup discipline are dynamic gates: `make race` plus the
# leakcheck-armed tests. See docs/ANALYSIS.md.
lint:
	$(GO) run ./cmd/hetpnoclint ./...

# Apply the suite's machine-applicable SuggestedFix rewrites in place.
# Conflicting fixes are dropped, not merged; re-run after reviewing.
lint-fix:
	$(GO) run ./cmd/hetpnoclint -fix ./...

# Preview what lint-fix would rewrite without touching files.
lint-dry:
	$(GO) run ./cmd/hetpnoclint -fix -dry ./...

# Regenerate the apistable API golden snapshots (testdata/api/*.golden)
# after an intentional exported-API change, then review the diff.
lint-update:
	$(GO) run ./cmd/hetpnoclint -update ./...

test:
	$(GO) test ./...

# The race gate covers the whole module: every run is an internal/batch
# plan, which spawns its simulation goroutines — and re-raises their
# panics on the caller — whenever it has more than one group: each
# multi-group hetpnoc.RunBatch, every experiments runner and cmd/sweep
# figure (a solo hetpnoc.Run runs on the caller's goroutine; hetpnocd
# runs its pool jobs, sweep points included, on its worker goroutines). A full -race pass takes a few minutes; race-quick keeps
# the goroutine-bearing subset (the root package, batch, experiments,
# sweep, serve) for tight loops. `race` is also the only lock-discipline
# gate (docs/ANALYSIS.md).
race:
	$(GO) test -race ./...

race-quick:
	$(GO) test -race . ./internal/batch/... ./internal/experiments/... ./cmd/sweep/... ./internal/serve/...

# Short native-fuzzing pass over every fuzz target; `go test -fuzz`
# accepts one package per invocation, hence one line per target. Seed
# corpora live under testdata/fuzz/; new crashers land there too.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzConfigValidate$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointRestore$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzServeRequestDecode$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSweepDecode$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzBatchPlan$$' -fuzztime $(FUZZTIME) ./internal/batch
	$(GO) test -run '^$$' -fuzz '^FuzzRouterReferenceEquivalence$$' -fuzztime $(FUZZTIME) ./internal/router
	$(GO) test -run '^$$' -fuzz '^FuzzVCReference$$' -fuzztime $(FUZZTIME) ./internal/router
	$(GO) test -run '^$$' -fuzz '^FuzzCreditAdvance$$' -fuzztime $(FUZZTIME) ./internal/traffic

# bench/ is its own module (hetpnoc/bench, replace hetpnoc => ../) and
# compiles against internal/fabric, internal/batch and internal/serve by
# name; its tests and the -smoke run hold its hand-lowered runs to
# hetpnoc.Run/RunBatch bit for bit. A refactor of those layers that
# tier-1 accepts can still break it, so it gates here.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -smoke

# The kernel microbenchmarks are only ever run by hand; a fixed, tiny
# iteration count on every push keeps them compiling and running (their
# set-up code included) without pretending to measure anything.
# FabricStep also matches FabricStepContext and FabricStepIdle;
# BatchMember is one forked member of the sweep corpus (internal/batch);
# TokenTick has a contended and a settled case (internal/core);
# RunShelved is a whole light-load Run whose build prefix is on the
# shelf of kept pristine builds (root package), and its allocs/op is the
# cost of a repeated run. HTTPSweep posts a 64-point one-prefix and a
# 48-point six-prefix /v1/sweep (internal/serve) and reports builds/op and
# forks/op; each iteration is ~0.1 s, hence its own iteration count.
# HTTPRunHit posts a cached config (internal/serve), once as the repeated
# body the body index answers and once respelled, and reports allocs/op.
bench-smoke:
	$(GO) test -run '^$$' -bench 'RouterTick|FabricStep|FabricCheckpoint|FabricRestore|FabricReseed|BatchMember|TokenTick|RunShelved|HTTPRunHit' -benchtime 200x . ./internal/router ./internal/fabric ./internal/batch ./internal/core ./internal/serve
	$(GO) test -run '^$$' -bench 'HTTPSweep' -benchtime 3x ./internal/serve

sweep:
	$(GO) run ./cmd/sweep -quick
