# Verify path for powerdiv. `make verify` is the gate every change must
# pass: build, vet, the full test suite, the race detector (the live meter,
# the parallel campaign runner and the run memoization cache are the
# concurrency-sensitive paths it guards), a one-iteration benchmark
# smoke run, the service and report smoke runs, and the line-count ratchet
# (`make loc-check`).
#
# `make bench` runs the campaign benchmark set and writes the
# BENCH_campaign.json baseline (see README); `make bench-check` is the
# smoke variant CI can afford; `make bench-diff` reruns the set against the
# committed baseline and fails past BENCH_THRESHOLD percent regression
# (the verify wiring judges the median of a few short repeats with a
# generous threshold, so only order-of-magnitude regressions — a lost fast
# path, an alloc explosion — trip it, not scheduler noise).
#
# `make cover` enforces a statement-coverage floor on the numeric core
# (internal/division), the model implementations (internal/models), the
# metrics subsystem (internal/obs), the traffic generator
# (internal/traffic), the fleet campaign (internal/fleet) and the campaign
# service (internal/serve) — the packages whose behaviour the paper's
# numbers depend on most directly.
#
# `make shuffle` runs the internal packages' tests twice in a shuffled
# order, so a test that leans on state an earlier test left behind (a
# shared cache, a registry entry, a worker-budget reading) fails here
# rather than only under some future test order.
#
# `make fuzz-smoke` runs each fuzz target briefly (seed corpus plus a few
# seconds of mutation) so verify catches parser panics without a long
# fuzzing session.

GO ?= go

# Aggregate statement-coverage floor for COVER_PKGS, in percent. Current
# coverage is ~90 %; the floor trails it so refactors have headroom but a
# test-free feature drop still fails.
COVER_FLOOR ?= 85
COVER_PKGS  = ./internal/division ./internal/models ./internal/obs ./internal/traffic ./internal/fleet ./internal/serve

# Regression threshold (percent) for bench-diff. The default is generous
# because one-iteration runs are noisy; nightly runs can tighten it.
BENCH_THRESHOLD ?= 300

# Scenarios/sec regression threshold (percent) for the cold campaign rung.
# Cold iterations drop every cache tier first, so each does identical work
# and the rate is comparable across runs even at one iteration — gated at a
# generous margin so only a lost fast path trips it, not machine noise.
# The committed baseline reflects the segment-compiled cold path (~3x the
# per-tick engine), so losing the engine — e.g. the change-point
# enumeration silently declining — is a ~65% collapse and trips this gate.
BENCH_RATE_THRESHOLD ?= 60

# Packages `make loc` counts: the ones ROADMAP's line-count targets name.
LOC_PKGS = internal/protocol internal/models internal/machine

.PHONY: build test vet fmt-check race shuffle cover bench bench-check bench-diff pprof fuzz-smoke serve-smoke report-smoke loc loc-check verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	@$(GO) tool cover -func=cover.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { pct = $$3; sub(/%/, "", pct); \
		 if (pct + 0 < floor) { printf "FAIL: coverage %s%% below floor %d%%\n", pct, floor; exit 1 } \
		 printf "coverage %s%% (floor %d%%)\n", pct, floor }'

race:
	$(GO) test -race ./...

shuffle:
	$(GO) test -shuffle=on -count=2 ./internal/...

bench:
	$(GO) run ./cmd/powerdiv-bench -out BENCH_campaign.json

bench-check:
	$(GO) run ./cmd/powerdiv-bench -bench 'BenchmarkCampaignMemoization|BenchmarkSimulatorTick' -benchtime 1x -out ''

# bench-diff runs the set five times at thirty iterations each. The
# -require-scaling gate takes the median of the repeats' workers-2/workers-1
# speedups, each repeat's two rungs run back to back, and every other gate
# judges each benchmark's median repeat. On a 2-CPU host one iteration of
# the ~1 ms fleet campaign swings past 1.0x either way, ten-iteration
# repeats still read below 1.0x about one time in three, and rungs timed
# minutes apart see the host drift between a fast and a slow mode.
bench-diff:
	$(GO) run ./cmd/powerdiv-bench -diff BENCH_campaign.json -threshold $(BENCH_THRESHOLD) -alloc-only \
		-rate-gate '^BenchmarkLabErrorTableCold' -rate-threshold $(BENCH_RATE_THRESHOLD) \
		-require-scaling 1.0 -benchtime 30x -count 5 -out ''

# pprof captures CPU and heap profiles of the cold campaign rung — the one
# the bench-diff rate gate polices, where every scenario simulates, observes
# and scores — for `go tool pprof cpu.prof` / `go tool pprof mem.prof`, and of
# the traffic campaign rung, whose churned rosters and self-calibrating
# models spend differently, into traffic-cpu.prof / traffic-mem.prof (all
# four gitignored).
pprof:
	$(GO) test -run '^$$' -bench 'BenchmarkLabErrorTableCold/small-intel' \
		-benchtime 20x -cpuprofile cpu.prof -memprofile mem.prof .
	$(GO) test -run '^$$' -bench '^BenchmarkTrafficCampaign$$' \
		-benchtime 20x -cpuprofile traffic-cpu.prof -memprofile traffic-mem.prof .

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzTraceJSON -fuzztime 5s ./internal/traffic
	$(GO) test -run=^$$ -fuzz=FuzzPowercapLayout -fuzztime 2s ./internal/rapl
	$(GO) test -run=^$$ -fuzz=FuzzParseCurveCSV -fuzztime 2s ./internal/cpumodel
	$(GO) test -run=^$$ -fuzz=FuzzSubmitJSON -fuzztime 3s ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzSnapshotJSON -fuzztime 3s ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzStreamHorizon -fuzztime 3s ./internal/machine
	$(GO) test -run=^$$ -fuzz=FuzzParseStat -fuzztime 2s ./internal/procfs
	$(GO) test -run=^$$ -fuzz=FuzzReadProc -fuzztime 2s ./internal/procfs

# serve-smoke boots the campaign daemon in-process, runs a 5-scenario
# streamed job over loopback HTTP, checks the NDJSON stream's shape, and
# drains — the end-to-end gate for cmd/powerdiv-serve.
serve-smoke:
	$(GO) run ./cmd/powerdiv-serve -smoke

# report-smoke regenerates every entry of experiments.Artefacts() with
# `powerdiv-report -out` into a temporary directory and fails unless the
# run wrote one CSV per table it rendered: a failed write or two tables
# sharing a file name leaves fewer files than tables.
report-smoke:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
		$(GO) run ./cmd/powerdiv-report -out "$$d/csv" > "$$d/report.txt" || exit 1; \
		want=$$(awk '/ tables regenerated in / { print $$1 }' "$$d/report.txt"); \
		got=$$(ls "$$d/csv" | grep -c '\.csv$$'); \
		if [ -z "$$want" ] || [ "$$got" -ne "$$want" ]; then \
			echo "FAIL: powerdiv-report wrote $$got CSVs for $${want:-no} tables"; exit 1; fi; \
		echo "report-smoke: $$got CSVs, one per table"

# loc prints the non-test Go line count (wc -l) of each LOC_PKGS package
# and their total, so line-count targets are measured the same way in
# every change, then the same count over the whole module outside
# perfbench/ (and hidden directories such as its build tree), which shows
# net deletions outside the three packages.
loc:
	@total=0; for d in $(LOC_PKGS); do \
		n=$$(cat $$(ls $$d/*.go | grep -v '_test\.go$$') | wc -l); \
		printf '%-20s %6d\n' $$d $$n; total=$$((total + n)); done; \
		printf '%-20s %6d\n' total $$total; \
		n=$$(find . -path './.*' -prune -o -path ./perfbench -prune -o \
			-name '*.go' ! -name '*_test.go' -print | sort | xargs cat | wc -l); \
		printf '%-20s %6d\n' module $$n

# loc-check is the line-count ratchet: it fails when `make loc`'s total
# exceeds the ceiling committed in LOC_CEILING. A change may lower the
# ceiling; a change that raises it says by how much and why in CHANGES.md.
loc-check:
	@total=$$($(MAKE) -s --no-print-directory loc | awk '$$1 == "total" { print $$2 }'); \
		ceiling=$$(cat LOC_CEILING); \
		if [ "$$total" -gt "$$ceiling" ]; then \
			echo "FAIL: make loc total $$total exceeds LOC_CEILING $$ceiling"; exit 1; fi; \
		echo "loc $$total (ceiling $$ceiling)"

verify: build vet fmt-check test race shuffle bench-check bench-diff fuzz-smoke serve-smoke report-smoke loc-check
