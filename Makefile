# Mirrors .github/workflows/ci.yml: `make ci-fast` is exactly the CI
# fast job, `make race` the full job, `make golden-check` the
# golden-figures job, `make bench-ci` one leg of the bench job.
# Contributors who run these before pushing run exactly what CI runs.

GO ?= go
# The fast CI job pins the same staticcheck release; override to use
# a locally installed binary (STATICCHECK=staticcheck).
STATICCHECK ?= $(GO) run honnef.co/go/tools/cmd/staticcheck@2024.1.1

.PHONY: all build test test-short race fmt fmt-check vet lint bench bench-ci \
	golden golden-check digests digests-full digests-full-check stress multinic fattree nicoll adaptive benchalloc simd \
	dca examples linkcheck perfbench-test ci-fast ci-full

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

lint: vet
	$(STATICCHECK) ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The CI bench job's invocation: every root benchmark (see
# bench_test.go) once, five samples, tests skipped. The job posts the
# raw outputs of the pushed head and of its merge base side by side;
# compare them by eye.
bench-ci:
	$(GO) test -bench . -benchtime 1x -count 5 -run '^$$' .

# Regenerate the golden rendering the golden-figures CI job diffs
# against. Commit the result together with the change that explains
# the drift.
golden:
	$(GO) run ./cmd/omxsim all > figures/testdata/omxsim-all.golden

golden-check:
	$(GO) run ./cmd/omxsim all > /tmp/omxsim-all.rendered
	diff -u figures/testdata/omxsim-all.golden /tmp/omxsim-all.rendered

# The sections whose event-order digests are committed: the ones cheap
# enough for the fast gate, which re-checks every line of the file
# (TestDigestsGolden). Regenerate only together with a change that is
# meant to move simulated events.
DIGEST_SECTIONS = micro fig3 fig7 fig8 fig9 fig10 timeline nasis ablate dca

digests:
	for s in $(DIGEST_SECTIONS); do $(GO) run ./cmd/omxsim -digest $$s || exit 1; done \
		> figures/testdata/digests.golden

# The remaining sections' digests: too slow for the fast gate (nicoll
# alone takes minutes), so ci-full re-renders them and diffs the whole
# file (digests-full-check). One process per section, since a digest
# collection is process-wide.
DIGEST_FULL_SECTIONS = fig11 fig12 coll loss avail multinic fattree nicoll adaptive

digests-full:
	for s in $(DIGEST_FULL_SECTIONS); do $(GO) run ./cmd/omxsim -digest $$s || exit 1; done \
		> figures/testdata/digests-full.golden

digests-full-check:
	for s in $(DIGEST_FULL_SECTIONS); do $(GO) run ./cmd/omxsim -digest $$s || exit 1; done \
		> /tmp/digests-full.rendered
	diff -u figures/testdata/digests-full.golden /tmp/digests-full.rendered

# Long-run reliability battery: seeded message storms under network
# impairment across all three stack pairings, plus the interop and
# firmware loss tests and the fuzz corpora of the shared protocol
# (internal/proto: reliability window, stripe reassembly, adaptive
# window), under the race detector. STRESS_SEEDS widens
# the sweep (the full CI job runs the tests' default seed count).
STRESS_SEEDS ?= 20
stress:
	OMXSIM_STRESS_SEEDS=$(STRESS_SEEDS) $(GO) test -race -count=1 \
		-run 'Stress|Storm|Loss|Impair|Recover|Fuzz' \
		./cluster ./internal/core ./internal/mxoe ./internal/interop \
		./internal/proto ./figures
	$(GO) test -race -count=1 -run 'ParallelMatchesSerial/Loss' ./figures

# Multi-NIC striping battery: the striped storms under per-lane
# impairment and cross-NIC skew (all three stack pairings), the
# stripe-reassembly fuzz corpus (internal/proto), per-NIC
# drop-attribution tests, the multinic figure guardrails and the
# 1-NIC ≡ legacy-path proof, under the race detector. STRESS_SEEDS
# widens the storm sweep.
multinic:
	OMXSIM_STRESS_SEEDS=$(STRESS_SEEDS) $(GO) test -race -count=1 \
		-run 'Striping|StripedLoss|StripeReassembly|MultiNIC|RingDropAttributed|1NICMatchesLegacy' \
		./cluster ./internal/core ./internal/proto ./figures
	$(GO) test -race -count=1 -run 'ParallelMatchesSerial/MultiNIC' ./figures

# Fat-tree battery: topology/Build equivalence, ECMP determinism and
# spread, the trunk-incast drop-attribution storm, the 64-rank
# parallel==serial figure guardrail and the calendar-queue event-core
# tests, under the race detector.
fattree:
	$(GO) test -race -count=1 ./sim
	$(GO) test -race -count=1 -run 'FatTree|ECMP|Trunk|Topology|Build' \
		./cluster ./internal/wire ./figures
	$(GO) test -race -count=1 -run 'ParallelMatchesSerial/FatTree' ./figures

# NIC-offloaded collective battery: host≡firmware result equality
# (odd/single-rank/zero-byte worlds), dispatcher≡pinned-entry for
# the offload tier, firmware loss recovery, the collective-frame drop
# gate on the host stack, the firmware's recycling guards (payload
# buffer and hop/ack record poison stress tests, the warm-Allreduce
# allocation bound, the bounded done window) and the nicoll figure
# guardrails (CPU-win acceptance + parallel==serial), under the race
# detector.
nicoll:
	$(GO) test -race -count=1 \
		-run 'NIColl|Nicoll|CollDrop|CollRecyclePoison|CollRecordPoison|FirmwareCollAlloc|CollDoneWindow' \
		./mpi ./internal/mxoe ./figures
	$(GO) test -race -count=1 -run 'ParallelMatchesSerial/NIColl' ./figures

# Adaptive-transport battery: the adaptive-vs-static acceptance tests
# (never >10% below the best static policy, wins outright under loss),
# the adaptive storm/striping/incast stress rigs, the window-shadow
# fuzz corpus, trace-export conformance plus the golden trace, and the
# parallel==serial determinism guardrails — all under the race
# detector. STRESS_SEEDS widens the storm sweeps.
adaptive:
	OMXSIM_STRESS_SEEDS=$(STRESS_SEEDS) $(GO) test -race -count=1 \
		-run 'Adaptive|RTT|AIMD|Steer|Trace|GoldenCanary' \
		./cluster ./internal/core ./internal/mxoe ./internal/proto \
		./internal/simd ./sim/trace ./figures
	$(GO) test -race -count=1 -run 'ParallelMatchesSerial/Adaptive' ./figures

# Memory-hierarchy battery: warmth-coverage and DMA/DCA ledger unit
# tests, registration-cache churn, the copy-rate decision table, the
# I/OAT engine (NUMA deposit costs included) and the dca figure
# guardrails (warm-consumer acceptance + parallel==serial), under the
# race detector.
dca:
	$(GO) test -race -count=1 ./internal/hostmem ./internal/memmodel ./internal/ioat
	$(GO) test -race -count=1 -run 'DCA|GoldenCanary' ./figures
	$(GO) test -race -count=1 -run 'ParallelMatchesSerial/DCA' ./figures

# The omxsimd service battery: the multi-tenant HTTP job service
# end to end under the race detector — concurrent tenants whose sweep
# results must be bit-identical to direct figures calls, quota 429s,
# SSE monotonic delivery, graceful drain, the 4xx surface, the load
# smoke (100 sequential + 16 concurrent clients with a p99 latency
# bound), and the real-binary SIGTERM exit-0 test.
simd:
	$(GO) test -race -count=1 ./internal/simd ./cmd/omxsimd

# The allocation gate: the calendar-queue benchmark, the proc-handoff
# benchmark (procs alternating through Signals, and a proc resuming
# itself from Sleep), the CPU-charge benchmark (a process charging a
# core through RunOn and RunOnDyn), the I/OAT descriptor benchmark (a
# two-page batch on a warm channel run until it retires, plus one
# NotifyAt) and the frame-hop benchmark (a frame through a hose, a
# switch and a second hose to a sink) must each report exactly 0
# allocs/op in steady state, or the zero-allocation claim (and with
# it the 512-rank CI budget) has regressed.
benchalloc:
	@check() { \
		out=$$($(GO) test -run '^$$' -bench "^$$1$$" -benchmem $$2); \
		echo "$$out"; \
		allocs=$$(echo "$$out" | awk -v b="$$1" '$$1 ~ "^"b {print $$(NF-1)}'); \
		if [ -z "$$allocs" ]; then echo "benchalloc: $$1 did not run" >&2; exit 1; fi; \
		if [ "$$allocs" != "0" ]; then \
			echo "benchalloc: $$1 allocates $$allocs allocs/op in steady state, want 0" >&2; \
			exit 1; \
		fi; \
	}; \
	check BenchmarkEventCoreCalendar ./sim && check BenchmarkProcHandoff ./sim && \
		check BenchmarkRunOn ./internal/cpu && check BenchmarkIOATDescriptor ./internal/ioat && \
		check BenchmarkHoseHop ./internal/wire

# Run every committed godoc example (they are living documentation
# with verified Output comments).
examples:
	$(GO) test -run Example ./...

# Verify every relative link in every committed markdown file
# resolves (offline; external URLs are out of scope).
linkcheck:
	$(GO) test -run TestMarkdownLinks .

# The benchmark of the simulator is a Go module of its own, so
# ./... from the root never reaches its tests (the sweep-equivalence
# and check tests).
perfbench-test:
	cd perfbench && $(GO) test ./...

ci-fast: build vet lint fmt-check examples linkcheck test-short perfbench-test

ci-full: race stress multinic fattree nicoll adaptive benchalloc simd dca digests-full-check
