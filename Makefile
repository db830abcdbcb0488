# Build/verify targets for the coarse repository.
#
# The parallel run harness (internal/runner) is the repo's first
# concurrent code, so `race` is part of `ci` — the full gate every PR
# must keep green.

GO ?= go

# Single source of truth for the staticcheck pin; CI's lint lane runs
# `make lint`, so bumping the version here is the whole upgrade.
STATICCHECK_VERSION = 2024.1.1

.PHONY: all build test race vet lint bench-module bench-e2e bench-smoke serve-smoke serve-family-smoke serve-golden suite golden-drift telemetry-smoke cover fuzz-smoke parallel-smoke ci

# Coverage floor for `make cover` (total statement coverage, percent,
# measured under -short so the floor tracks the fast deterministic
# tests rather than the long golden regenerations). Raise it when
# coverage durably improves; lowering it needs a PR that explains why.
COVER_FLOOR = 72.0

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The runner fans simulation cells across goroutines; -race guards the
# "no shared mutable state between cells" invariant.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The repo benchmark (benchmark/) is its own module, so the root
# `go build ./...` never compiles it: vet and test it separately so an
# API change in the simulator cannot break it silently.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -count=1 ./...

# The repo benchmark end to end: one short run of each workload at seed
# 1 (about 21 s on a 2-CPU VM). Fails unless every run exits 0 and its
# result line says "correct":true and "failed":0. Timings are printed
# but not judged. Each workload's allocation metrics are printed on a
# line of their own, so logs show allocation drift at a glance
# (training cells repeat them to 0.01%, alloc_mb to 0.1%). On the Go
# release named by BENCH_ALLOCS_GO, each workload's allocs_k, alloc_mb
# and heap_live_mb must also stay at or below their ceilings in
# BENCH_CEILINGS (workload:metric:ceiling): the seed-1 value measured
# on that release, plus the benchmark's bound on that metric (3% on
# allocs_k and alloc_mb, 5% on heap_live_mb). Allocation counts can
# move with the Go release, so on any other release (as reported by
# the go that benchmark/run.sh builds with) the ceilings are not
# applied and the target says so. A change that lowers a workload's
# allocations or live heap for good lowers its ceilings too.
BENCH_WORKLOADS = paper-fig16 scale-512 layouts-3d serve-kv
BENCH_MEM_METRICS = allocs_k alloc_mb heap_live_mb
BENCH_ALLOCS_GO = go1.24.0
BENCH_CEILINGS = paper-fig16:allocs_k:52.9 paper-fig16:alloc_mb:5.28 paper-fig16:heap_live_mb:0.296 \
	scale-512:allocs_k:205.9 scale-512:alloc_mb:27.24 scale-512:heap_live_mb:8.21 \
	layouts-3d:allocs_k:136.2 layouts-3d:alloc_mb:15.54 layouts-3d:heap_live_mb:1.296 \
	serve-kv:allocs_k:4.60 serve-kv:alloc_mb:1.44 serve-kv:heap_live_mb:0.182

bench-e2e:
	@gover=$$(GOTOOLCHAIN=local go env GOVERSION); \
	[ "$$gover" = $(BENCH_ALLOCS_GO) ] || echo "bench-e2e: allocs_k/alloc_mb/heap_live_mb ceilings were recorded on $(BENCH_ALLOCS_GO), not applied on $$gover"; \
	for w in $(BENCH_WORKLOADS); do \
		out=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) || { echo "bench-e2e: $$w exited non-zero" >&2; exit 1; }; \
		line=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "$$w: $$line"; \
		mem=""; for m in $(BENCH_MEM_METRICS); do \
			mem="$$mem $$m=$$(printf '%s\n' "$$line" | sed -n "s/.*\"$$m\":{\"value\":\([^,}]*\).*/\1/p")"; \
		done; \
		echo "$$w memory:$$mem"; \
		case "$$line" in *'"correct":true,'*'"failed":0,'*) ;; *) echo "bench-e2e: $$w is not correct:true, failed:0" >&2; exit 1;; esac; \
		[ "$$gover" = $(BENCH_ALLOCS_GO) ] || continue; \
		gated=""; for c in $(BENCH_CEILINGS); do \
			case "$$c" in "$$w:"*) ;; *) continue;; esac; \
			m=$${c#*:}; ceil=$${m#*:}; m=$${m%%:*}; \
			v=$$(printf '%s\n' "$$line" | sed -n "s/.*\"$$m\":{\"value\":\([^,}]*\).*/\1/p"); \
			awk -v a="$$v" -v c="$$ceil" 'BEGIN { exit !(a != "" && a + 0 <= c + 0) }' || { echo "bench-e2e: $$w $$m $$v exceeds its ceiling $$ceil" >&2; exit 1; }; \
			echo "$$w ceiling: $$m $$v <= $$ceil"; gated="$$gated $$m"; \
		done; \
		[ "$$gated" = " allocs_k alloc_mb heap_live_mb" ] || { echo "bench-e2e: $$w needs an allocs_k, an alloc_mb and a heap_live_mb ceiling, has:$$gated" >&2; exit 1; }; \
	done

# Formatting + vet + staticcheck, the CI lint lane. The staticcheck
# step fetches the pinned module and so needs network on first use;
# gofmt/vet run fine offline.
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# CI guard: every fabric, engine, ring and routing microbenchmark must
# still compile and run. One iteration each, no file rewritten, no timing claims.
# Figures are regenerated by coarsebench, not by benchmarks.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./internal/fabric ./internal/sim ./internal/collective ./internal/topology
	$(GO) test -race -bench=. -benchtime=1x -run=^$$ ./internal/fabric

# Regenerate the full evaluation (quick mode) with suite timing on
# stderr; compare `-parallel 1` against the default to verify the
# byte-identical-output guarantee on your machine.
suite:
	$(GO) run ./cmd/coarsebench -quick -timing

# Golden-drift gate: regenerate the fig8/fig16/resilience/scale/serve
# families at -parallel 1 and -parallel 4 and compare byte-for-byte
# against the committed goldens (tables verbatim, fig16/resilience/
# serve telemetry dumps via sha256 manifest; the scale family pins
# tables only — its rack-size cells are too large to trace). After an
# intentional output change, refresh with
#   go test ./internal/experiments -run TestGoldenDeterminism -update-goldens
golden-drift:
	$(GO) test ./internal/experiments -run TestGoldenDeterminism -count=1 -v

# Per-package coverage summary plus a floored total: the `go test`
# lines print per-package percentages, cover.out holds the merged
# profile (the CI coverage lane uploads it as an artifact), and the
# final awk check fails the target if total statement coverage fell
# below COVER_FLOOR.
cover:
	$(GO) test -short -count=1 -covermode=atomic -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		printf "total statement coverage %.1f%% (floor %.1f%%)\n", t, f; \
		exit (t + 0 < f + 0) ? 1 : 0 }'

# Ten seconds of each fuzz target (the committed corpora under
# testdata/fuzz replay as plain unit tests in every `make test`; this
# target actually explores). New interesting inputs stay in the local
# build cache — promote them into testdata/fuzz when they pin a fixed
# bug.
fuzz-smoke:
	$(GO) test ./internal/chaos -fuzz FuzzChaosWindows -fuzztime 10s -run '^$$'
	$(GO) test ./internal/metrics -fuzz FuzzTableRoundTrip -fuzztime 10s -run '^$$'
	$(GO) test ./internal/parallel -fuzz FuzzLayoutValidate -fuzztime 10s -run '^$$'
	$(GO) test ./internal/config -fuzz FuzzScenarioRead -fuzztime 10s -run '^$$'
	$(GO) test ./internal/topology -fuzz FuzzScaleSpec -fuzztime 10s -run '^$$'
	$(GO) test ./internal/telemetry -fuzz FuzzReadDump -fuzztime 10s -run '^$$'
	$(GO) test ./internal/serve -fuzz FuzzServeWorkload -fuzztime 10s -run '^$$'

# Live-dashboard smoke: coarsebench -serve on a quick grid — endpoints
# healthy and well-formed, clean SIGTERM shutdown, and stdout
# byte-identical to a serverless run (needs curl + python3).
serve-smoke:
	sh scripts/serve_smoke.sh

# Same smoke on the inference-serving family: its cells carry no
# training strategy, so this exercises the dashboard's workload-
# agnostic cell handling end to end (distinct port: both smokes may
# run in one CI job).
serve-family-smoke:
	EXP=serve PORT=18735 sh scripts/serve_smoke.sh

# Sharded-layout breadth lane: the smallest pipeline-, tensor-,
# combined- and expert-parallel cell of every strategy on every machine
# whose world size admits the layout (race-friendly by size), the
# DP-only byte-identity property, and the dashboard smoke on the
# parallelism family so the layout-field consistency check in
# serve_smoke.sh exercises cells that actually carry layouts.
parallel-smoke:
	$(GO) test ./internal/experiments -run 'TestStrategyLayoutSmoke|TestDPOnlyLayoutByteIdentity' -count=1
	EXP=parallelism PORT=18736 sh scripts/serve_smoke.sh

# Golden-drift gate for the serving family alone (the full golden-drift
# target includes it too): regenerate the serve tables + telemetry
# dumps at -parallel 1 and 4 and compare against the committed goldens.
serve-golden:
	$(GO) test ./internal/experiments -run TestGoldenDeterminismServe -count=1 -v

# End-to-end observability check: run one telemetry-enabled training
# simulation and one serving simulation (both through internal/runner),
# verify the dumps and the Perfetto traces are written and byte-stable
# across two runs, and that the inspector reads them back. A
# two-strategy -trace run (from a -config scenario) must write the same
# per-strategy files twice.
telemetry-smoke:
	rm -rf .telemetry-smoke && mkdir -p .telemetry-smoke
	$(GO) run ./cmd/coarsesim -machine v100 -model bert-base -batch 2 -iters 2 \
		-strategy COARSE -telemetry .telemetry-smoke/a.json -trace .telemetry-smoke/a
	$(GO) run ./cmd/coarsesim -machine v100 -model bert-base -batch 2 -iters 2 \
		-strategy COARSE -telemetry .telemetry-smoke/b.json -trace .telemetry-smoke/b
	cmp .telemetry-smoke/a.json .telemetry-smoke/b.json
	cmp .telemetry-smoke/a.COARSE.json .telemetry-smoke/b.COARSE.json
	$(GO) run ./cmd/coarsestat .telemetry-smoke/a.json
	printf '{"machine":"v100","model":"bert-base","batch":2,"iterations":2,"strategies":["COARSE","AllReduce"]}' \
		> .telemetry-smoke/two.json
	$(GO) run ./cmd/coarsesim -config .telemetry-smoke/two.json -trace .telemetry-smoke/two-a
	$(GO) run ./cmd/coarsesim -config .telemetry-smoke/two.json -trace .telemetry-smoke/two-b
	cmp .telemetry-smoke/two-a.COARSE.json .telemetry-smoke/two-b.COARSE.json
	cmp .telemetry-smoke/two-a.AllReduce.json .telemetry-smoke/two-b.AllReduce.json
	$(GO) run ./cmd/coarsesim -workload serve -requests 24 -telemetry .telemetry-smoke/serve-a.json
	$(GO) run ./cmd/coarsesim -workload serve -requests 24 -telemetry .telemetry-smoke/serve-b.json
	cmp .telemetry-smoke/serve-a.json .telemetry-smoke/serve-b.json
	$(GO) run ./cmd/coarsestat .telemetry-smoke/serve-a.json
	rm -rf .telemetry-smoke

ci: build vet test race
