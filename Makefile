# Build, test and verification entry points. `make verify` is the gate
# CI runs (see .github/workflows/ci.yml): build + tests + go vet +
# pastrilint + race detector + a short fuzz smoke pass.

GO ?= go
FUZZTIME ?= 5s

.PHONY: build fmt test vet bench-vet lint race fuzz-smoke bench-smoke bench-json bench-gate cover serve-test cover-serve verify clean

build:
	$(GO) build ./...

# fmt: every Go file must be gofmt-clean; lists the offenders and fails
# otherwise.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# -shuffle=on randomizes test (and subtest) execution order so hidden
# ordering assumptions surface early.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# bench-vet: bench/ (pastribench) is a nested module, so neither `go
# build ./...` nor `vet` above compiles it; an API change in
# internal/core or internal/server would otherwise break
# `bash bench/run.sh` with every other check green.
bench-vet:
	cd bench && $(GO) vet ./...

# pastrilint: the PaSTRI-specific analyzer suite (internal/analysis):
# one-package checks and the interprocedural flow-engine analyzers in
# one run. Findings are fixed or annotated with //lint:<analyzer>-ok
# plus the reason the invariant holds. The suite's own fixtures are
# checked by `go test ./internal/analysis` (part of test and race).
lint:
	$(GO) run ./cmd/pastrilint ./...

race:
	$(GO) test -race ./...

# fuzz-smoke: run each fuzz target for a few seconds. Go permits one
# -fuzz target per invocation, so the targets are enumerated explicitly.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzBitio$$ -fuzztime=$(FUZZTIME) ./internal/bitio
	$(GO) test -run='^$$' -fuzz=FuzzBitioReader$$ -fuzztime=$(FUZZTIME) ./internal/bitio
	$(GO) test -run='^$$' -fuzz=FuzzDecodeECQ$$ -fuzztime=$(FUZZTIME) ./internal/encoding
	$(GO) test -run='^$$' -fuzz=FuzzDecompress$$ -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzBlockReader$$ -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzFusedCompress$$ -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzDecompress$$ -fuzztime=$(FUZZTIME) ./internal/sz
	$(GO) test -run='^$$' -fuzz=FuzzDecompress$$ -fuzztime=$(FUZZTIME) ./internal/zfp
	$(GO) test -run='^$$' -fuzz=FuzzCFGBuild$$ -fuzztime=$(FUZZTIME) ./internal/analysis/flow
	$(GO) test -run='^$$' -fuzz=FuzzStoreOpen$$ -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzHistogram$$ -fuzztime=$(FUZZTIME) ./internal/telemetry

# bench-smoke: execute (not measure) the perf-sensitive benchmarks once
# each, so a PR that breaks the telemetry zero-cost path or the parallel
# compressor's determinism check fails loudly in CI without paying full
# benchmark time. BenchmarkCompressWorkers asserts byte-identical output
# across worker counts; BenchmarkTelemetryOverhead exercises both the
# nil-collector and live-collector paths. The second block covers the
# fused pipeline's lane kernels (ER argmax, quantize+clamp, the batched
# bit-emission kernels), so breaking one fails CI even without a full
# measurement run.
bench-smoke:
	$(GO) test -run='^$$' -bench='^(BenchmarkTelemetryOverhead|BenchmarkCompressWorkers)$$' \
		-benchtime=1x .
	$(GO) test -run='^$$' -bench='^BenchmarkArgMaxAbs$$' -benchtime=1x ./internal/pattern
	$(GO) test -run='^$$' -bench='^(BenchmarkQuantize|BenchmarkQuantizeClampN)$$' -benchtime=1x ./internal/quant
	$(GO) test -run='^$$' -bench='^(BenchmarkWriteBitsN|BenchmarkWriteSignedN|BenchmarkWriteUnaryN)$$' \
		-benchtime=1x ./internal/bitio

# bench-json: measure the perf-tracked benchmarks and refresh the
# "current" section of BENCH_PR9.json (committed; cmd/benchjson keeps
# the baseline sections intact — BENCH_PR4.json holds the PR-4..8
# trajectory and is no longer refreshed). Figure benchmarks run once —
# their reported metrics (ratios, deviations) are deterministic — while
# the kernel micro-benchmarks get real measurement time. CI uploads the
# JSON and the raw text as artifacts; tune BENCHTIME/BENCH_COUNT for
# quicker local runs.
BENCHTIME ?= 2s
BENCH_COUNT ?= 3
KERNEL_BENCHES = ^(BenchmarkCompressWorkers|BenchmarkCompressWorkersFF|BenchmarkDecompressCollect|BenchmarkDecodeBlock|BenchmarkBlockCodec)$$
FIGURE_BENCHES = ^(BenchmarkFig|BenchmarkAblation|BenchmarkHybrid|BenchmarkOutput|BenchmarkParallelScaling|BenchmarkStreamWriter|BenchmarkTelemetryOverhead)

bench-json:
	@rm -f bench_current.txt
	$(GO) test -run='^$$' -bench='$(FIGURE_BENCHES)' -benchmem -benchtime=1x -timeout=60m . >> bench_current.txt
	$(GO) test -run='^$$' -bench='$(KERNEL_BENCHES)' -benchmem -benchtime=$(BENCHTIME) -count=$(BENCH_COUNT) -timeout=60m . >> bench_current.txt
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./internal/bitio >> bench_current.txt
	$(GO) run ./cmd/benchjson -file BENCH_PR9.json -label current \
		-flags '-benchmem -benchtime=$(BENCHTIME) -count=$(BENCH_COUNT) (kernel) / -benchtime=1x (figures)' \
		< bench_current.txt

# bench-gate: the perf gate, three checks. (1) Regression: re-measure the
# tracked kernel benchmarks and compare their medians against the
# committed BENCH_PR9.json "current" section — a kernel whose median
# ns/op worsens by more than 25% fails the build. The
# threshold is 25% because shared runners drift ±20% with box load
# (every benchmark shifts together), so a tighter absolute gate flakes;
# 25% still catches structural regressions such as losing the fused
# path (+45% on serial ff). The committed section must have been
# measured on a comparable machine (refresh with `make bench-json` when
# hardware changes); medians over five 1 s runs absorb scheduler
# noise. (2) Record: the committed fused "current" section
# must beat the committed staged baseline_staged section by at least
# 1.3x on the serial (ff|ff) compress — the fused-pipeline PR's
# acceptance criterion, checked deterministically from the committed
# medians so it cannot flake. The staged encoder itself now lives only
# in internal/core's tests, as the identity oracle; baseline_staged is
# the committed record of its speed. (3) Decode record: in
# BENCH_PR15.json the word-window ECQ decoder ("current") must beat the
# symbol-at-a-time decoder it replaced ("parent") by at least 1.3x on
# the (ff|ff) block decode. Both sections hold
# BenchmarkDecodeBlock and BenchmarkDecompressCollect, measured with
# `go test -c` binaries of the two commits run in alternating rounds on
# one machine and written with cmd/benchjson -label parent / current.
bench-gate:
	@rm -f bench_gate.txt bench_gate.json
	$(GO) test -run='^$$' -bench='$(KERNEL_BENCHES)' -benchmem \
		-benchtime=1s -count=5 -timeout=30m . > bench_gate.txt
	$(GO) run ./cmd/benchjson -label gate < bench_gate.txt > bench_gate.json
	$(GO) run ./cmd/benchdiff -threshold 25 -noise 5 \
		BENCH_PR9.json:current bench_gate.json:gate
	@rm -f bench_gate.txt bench_gate.json
	$(GO) run ./cmd/benchdiff -bench 'BenchmarkCompressWorkersFF/serial' \
		-minspeedup 1.3 \
		BENCH_PR9.json:baseline_staged BENCH_PR9.json:current
	$(GO) run ./cmd/benchdiff -bench 'BenchmarkDecodeBlock/ff' -minspeedup 1.3 \
		BENCH_PR15.json:parent BENCH_PR15.json:current

# cover: combined coverage of the codec core (internal/core +
# internal/encoding) over their own tests plus the public-API suite;
# fails below 88% so future PRs can't silently shed tests (established
# at 90.1% by the parallel-pipeline PR; the floor leaves a small margin
# for refactors).
cover:
	$(GO) test -coverprofile=cover.out \
		-coverpkg=repro/internal/core,repro/internal/encoding \
		./internal/core ./internal/encoding .
	@$(GO) tool cover -func=cover.out | awk ' \
		$$1 == "total:" { pct = $$3; sub(/%/, "", pct); \
			printf "combined core+encoding coverage: %s%% (floor 88.0%%)\n", pct; \
			if (pct + 0 < 88.0) { exit 1 } }'

# serve-test: the pastrid service battery under the race detector —
# store fault injection, cache correctness, the HTTP integration tests
# (golden fixtures at worker counts 1/4/7, wire-protocol goldens,
# span-tree parentage, two tenants' concurrent uploads and reads
# checked against the serial decode, trace retention and SLO coverage,
# and the same trace and SLO checks made from outside the package in
# internal/server/loadtest) and the ops report — then pastribench's smoke test, which runs every
# workload at smoke sizes, the service ones against the real pastrid
# binary, and fails on any read or upload that disagrees with its
# serial oracle.
serve-test:
	$(GO) test -race -count=1 ./internal/store ./internal/blockcache ./internal/server/... ./internal/opsreport
	cd bench && $(GO) test -count=1 ./...

# cover-serve: combined statement coverage of the serving stack
# (internal/server + internal/store + internal/blockcache); fails below
# 80% (established at 83.1% by the pastrid PR).
cover-serve:
	$(GO) test -coverprofile=cover_serve.out \
		-coverpkg=repro/internal/server,repro/internal/store,repro/internal/blockcache \
		./internal/server/... ./internal/store ./internal/blockcache
	@$(GO) tool cover -func=cover_serve.out | awk ' \
		$$1 == "total:" { pct = $$3; sub(/%/, "", pct); \
			printf "combined server+store+blockcache coverage: %s%% (floor 80.0%%)\n", pct; \
			if (pct + 0 < 80.0) { exit 1 } }'

# verify runs every gate once; CI runs nothing else as a gate. The
# timing-sensitive bench-gate goes last, so a slow machine that fails
# it has already run every correctness gate.
verify: build fmt test vet bench-vet lint race fuzz-smoke bench-smoke cover serve-test cover-serve bench-gate
	@echo "verify: OK"

clean:
	$(GO) clean ./...
	rm -rf internal/*/testdata/fuzz internal/analysis/flow/testdata/fuzz cover.out cover_serve.out bench_current.txt bench_gate.txt bench_gate.json pastrid_ledger*.json
