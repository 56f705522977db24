# Tier-1 verification and perf tooling for the hetpnoc simulator.
#
#   make check   — build, vet, full test suite, a race-enabled run of
#                  everything, and bench-check (the CI gate)
#   make test    — fast test pass only; it includes the static checks of
#                  static_test.go (API goldens, dropped errors, scan-loop
#                  bounds checks; see docs/ANALYSIS.md)
#   make fuzz-smoke — 10s-per-target native fuzz pass (CI smoke gate)
#   make bench-check — vet, test and smoke-run the bench/ module (the
#                  BENCHMARK.json load generator), which root `go test
#                  ./...` cannot see
#   make bench-smoke — compile and run the router/fabric/batch/token
#                  microbenchmarks, a shelved Run and a /v1/run cache hit
#                  at 200 iterations each, and the /v1/sweep and probed
#                  Run benchmarks at 3 (CI keeps them from rotting)
#   make fused   — fail on any fused multiply-add the arm64 compiler
#                  emits in a module function (fused_test.go)
#   make mutants — apply each entry of the mutant catalogue
#                  (testdata/mutants) alone to a copy of the module and
#                  require its killers to fail; writes the tally to
#                  mutants-tally.txt (not part of check: ~20 min)
#   make sweep   — quick smoke sweep of every figure, HTML report included

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build vet test race race-quick fuzz-smoke bench-check bench-smoke fused mutants sweep

check: build vet test race bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The root package's static_test.go checks what no run can see: the
# exported API against testdata/api goldens (regenerate with `go test -run
# '^TestAPIGolden$' -update .`), dropped errors, and the bounds checks
# the compiler leaves in the simulator's occupancy scan loops. The rest
# are dynamic gates: zero allocations (TestStepZeroAllocs,
# TestRunAllocations), determinism (TestPathEquivalence's Beside path)
# and cancellation (the runners' cancellation tests), shown by `make
# mutants` to kill the catalogued defects; lock discipline, goroutine
# lifetime, channel and WaitGroup discipline by `make race` plus the
# leakcheck-armed tests; checkpoint completeness by
# TestCheckpointRoundTrip. See docs/ANALYSIS.md.
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
# RunProbed is a whole light and saturated Run with the probe off and
# on (root package); a saturated run is ~0.1 s, hence 3 iterations.
bench-smoke:
	$(GO) test -run '^$$' -bench 'RouterTick|FabricStep|FabricCheckpoint|FabricRestore|FabricReseed|BatchMember|TokenTick|RunShelved|HTTPRunHit' -benchtime 200x . ./internal/router ./internal/fabric ./internal/batch ./internal/core ./internal/serve
	$(GO) test -run '^$$' -bench 'HTTPSweep' -benchtime 3x ./internal/serve
	$(GO) test -run '^$$' -bench 'RunProbed' -benchtime 3x .

# A fused x*y + z rounds once, so the floats of a run — and the goldens —
# would differ between amd64 and arm64. The build-tagged test
# cross-compiles the module with -gcflags=-S and names every fused
# instruction's function and line; the nightly workflow runs all four
# fusing architectures (arm64, ppc64le, s390x, riscv64). -count=1: the
# test reads the source through a child build the test cache cannot see.
fused:
	$(GO) test -tags fused -count=1 -run '^TestNoFusedMultiplyAdd$$/^arm64$$' .

# The mutant catalogue: every entry is one defect (an allocation at the
# entry or in a branch of a function the cycle reaches, a determinism
# defect of each class, a severed cancellation edge) with the tests
# that must fail on it. The driver
# (mutants_run_test.go, build tag mutants) applies each alone to a copy
# of the module and runs its killers with plain go test; a survivor or a
# mutant that does not build fails the target. -count=1: the driver
# reads the tree through child builds the test cache cannot see.
mutants:
	$(GO) test -tags mutants -count=1 -timeout 90m -run '^TestMutants$$' -v . > mutants-tally.txt 2>&1; \
		status=$$?; grep -E '^(--- FAIL|ok|FAIL)|mutants killed|wall time|survived|does not build' mutants-tally.txt; exit $$status

sweep:
	$(GO) run ./cmd/sweep -quick -html sweep.html
