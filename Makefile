# Build, test and verification entry points. `make verify` is the gate
# CI runs (see .github/workflows/ci.yml): build + tests + go vet +
# pastrilint + race detector + a short fuzz smoke pass.

GO ?= go
FUZZTIME ?= 5s
# Combined statement coverage floor for internal/core + internal/encoding,
# enforced by `make cover` (established at 90.1% by the parallel-pipeline
# PR; the floor leaves a small margin for refactors).
COVER_THRESHOLD ?= 88.0

.PHONY: build fmt test vet lint lint-sarif lint-selftest race fuzz-smoke bench-smoke bench-json bench-baseline bench-gate cover serve-test cover-serve verify clean

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

# pastrilint: the PaSTRI-specific analyzer suite (internal/analysis),
# both per-package and module-wide (flow-engine) analyzers. Findings
# are fixed, annotated with //lint:<analyzer>-ok, or — for debt that
# needs more than one PR — recorded in .pastrilint-baseline.json with a
# reason and a mandatory expiry date. Expired or unused baseline
# entries fail the target.
lint:
	$(GO) run ./cmd/pastrilint -baseline .pastrilint-baseline.json ./...

# lint-sarif: same gate, but also emit pastrilint.sarif for code
# scanning UIs. CI uploads the file as an artifact. `|| true` is NOT
# used: findings still fail, after the SARIF is written.
lint-sarif:
	$(GO) run ./cmd/pastrilint -baseline .pastrilint-baseline.json -sarif pastrilint.sarif ./...

# lint-selftest: run the analyzer suite over its own fixture packages
# and diff the machine-readable findings against the committed golden —
# an end-to-end check that every analyzer still sees exactly what it
# documented. Regenerate the golden with:
#   go run ./cmd/pastrilint -selftest > cmd/pastrilint/testdata/selftest.golden.json
lint-selftest:
	$(GO) run ./cmd/pastrilint -selftest | diff -u cmd/pastrilint/testdata/selftest.golden.json -

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
BENCH_JSON ?= BENCH_PR9.json
KERNEL_BENCHES = ^(BenchmarkCompressWorkers|BenchmarkCompressWorkersFF|BenchmarkDecompressCollect|BenchmarkDecodeBlock|BenchmarkBlockCodec)$$
FIGURE_BENCHES = ^(BenchmarkFig|BenchmarkAblation|BenchmarkHybrid|BenchmarkOutput|BenchmarkParallelScaling|BenchmarkParallelStreamWriter|BenchmarkTelemetryOverhead)

bench-json:
	@rm -f bench_current.txt
	$(GO) test -run='^$$' -bench='$(FIGURE_BENCHES)' -benchmem -benchtime=1x -timeout=60m . >> bench_current.txt
	$(GO) test -run='^$$' -bench='$(KERNEL_BENCHES)' -benchmem -benchtime=$(BENCHTIME) -count=$(BENCH_COUNT) -timeout=60m . >> bench_current.txt
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./internal/bitio >> bench_current.txt
	$(GO) run ./cmd/benchjson -file $(BENCH_JSON) -label current \
		-flags '-benchmem -benchtime=$(BENCHTIME) -count=$(BENCH_COUNT) (kernel) / -benchtime=1x (figures)' \
		< bench_current.txt

# bench-baseline: measure the kernel benchmarks on the STAGED
# compression path (PASTRI_BENCH_STAGED=1 disables the fused pipeline
# in the benchmark options) and record them as BENCH_PR9.json's
# baseline_staged section. Run once per machine; bench-gate's record
# check compares the committed sections, not live runs.
bench-baseline:
	@rm -f bench_baseline.txt
	PASTRI_BENCH_STAGED=1 $(GO) test -run='^$$' -bench='$(KERNEL_BENCHES)' -benchmem \
		-benchtime=$(BENCHTIME) -count=$(BENCH_COUNT) -timeout=60m . > bench_baseline.txt
	$(GO) run ./cmd/benchjson -file $(BENCH_JSON) -label baseline_staged \
		-flags 'PASTRI_BENCH_STAGED=1 -benchmem -benchtime=$(BENCHTIME) -count=$(BENCH_COUNT)' \
		< bench_baseline.txt
	@rm -f bench_baseline.txt

# bench-gate: the perf gate, three checks. (1) Regression: re-measure the
# tracked kernel benchmarks and compare their medians against the
# committed BENCH_PR9.json "current" section — a kernel whose median
# ns/op worsens beyond BENCH_GATE_THRESHOLD fails the build. The
# threshold is 25% because shared runners drift ±20% with box load
# (every benchmark shifts together), so a tighter absolute gate flakes;
# 25% still catches structural regressions such as losing the fused
# path (+45% on serial ff). The committed section must have been
# measured on a comparable machine (refresh with `make bench-json` when
# hardware changes); medians over BENCH_GATE_COUNT runs absorb
# scheduler noise. (2) Record: the committed fused "current" section
# must beat the committed staged baseline_staged section by at least
# BENCH_RECORD_SPEEDUP on the serial (ff|ff) compress — the
# fused-pipeline PR's acceptance criterion, checked deterministically
# from the committed medians so it cannot flake. (3) Decode record: in
# BENCH_PR15.json the word-window ECQ decoder ("current") must beat the
# symbol-at-a-time decoder it replaced ("parent") by at least 1.3x on
# the (ff|ff) block decode. Both sections hold
# BenchmarkDecodeBlock and BenchmarkDecompressCollect, measured with
# `go test -c` binaries of the two commits run in alternating rounds on
# one machine and written with cmd/benchjson -label parent / current.
BENCH_GATE_TIME ?= 1s
BENCH_GATE_COUNT ?= 5
BENCH_GATE_THRESHOLD ?= 25
BENCH_RECORD_SPEEDUP ?= 1.3
bench-gate:
	@rm -f bench_gate.txt bench_gate.json
	$(GO) test -run='^$$' -bench='$(KERNEL_BENCHES)' -benchmem \
		-benchtime=$(BENCH_GATE_TIME) -count=$(BENCH_GATE_COUNT) -timeout=30m . > bench_gate.txt
	$(GO) run ./cmd/benchjson -label gate < bench_gate.txt > bench_gate.json
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_GATE_THRESHOLD) -noise 5 \
		$(BENCH_JSON):current bench_gate.json:gate
	@rm -f bench_gate.txt bench_gate.json
	$(GO) run ./cmd/benchdiff -bench 'BenchmarkCompressWorkersFF/serial' \
		-minspeedup $(BENCH_RECORD_SPEEDUP) \
		$(BENCH_JSON):baseline_staged $(BENCH_JSON):current
	$(GO) run ./cmd/benchdiff -bench 'BenchmarkDecodeBlock/ff' -minspeedup 1.3 \
		BENCH_PR15.json:parent BENCH_PR15.json:current

# cover: combined coverage of the codec core (internal/core +
# internal/encoding) over their own tests plus the public-API suite;
# fails below COVER_THRESHOLD so future PRs can't silently shed tests.
cover:
	$(GO) test -coverprofile=cover.out \
		-coverpkg=repro/internal/core,repro/internal/encoding \
		./internal/core ./internal/encoding .
	@$(GO) tool cover -func=cover.out | awk ' \
		$$1 == "total:" { pct = $$3; sub(/%/, "", pct); \
			printf "combined core+encoding coverage: %s%% (floor $(COVER_THRESHOLD)%%)\n", pct; \
			if (pct + 0 < $(COVER_THRESHOLD)) { exit 1 } }'

# serve-test: the pastrid service battery — store fault injection,
# cache correctness, the HTTP integration tests (golden fixtures at
# worker counts 1/4/7, wire-protocol goldens, span-tree parentage) and
# the client-fleet smoke, all under the race detector — then a
# pastrid-bench fleet run whose report, Prometheus scrape, Chrome
# trace export, ops dump, probe transcript (/healthz, /readyz,
# /debug/slo), and rendered ops report CI uploads as artifacts. The
# bench exits nonzero on any correctness failure, on a p99-worst read
# whose trace tail sampling failed to retain, or on an SLO evaluation
# that fails to cover every fleet tenant.
serve-test:
	$(GO) test -race -count=1 ./internal/store ./internal/blockcache ./internal/server ./internal/server/loadtest ./internal/opsreport
	$(GO) run ./cmd/pastrid-bench -writers 8 -readers 24 -reads 60 -blocks 12 \
		-out bench_serve_smoke.json -metricsout pastrid_scrape.txt -traceout pastrid_traces.json \
		-opsout pastrid_ops.json -probesout pastrid_probes.txt
	$(GO) run ./cmd/pastrid report -file pastrid_ops.json -out pastrid_report.txt

# cover-serve: combined statement coverage of the serving stack
# (internal/server + internal/store + internal/blockcache); fails below
# COVER_SERVE_THRESHOLD (established at 83.1% by the pastrid PR).
COVER_SERVE_THRESHOLD ?= 80.0
cover-serve:
	$(GO) test -coverprofile=cover_serve.out \
		-coverpkg=repro/internal/server,repro/internal/store,repro/internal/blockcache \
		./internal/server/... ./internal/store ./internal/blockcache
	@$(GO) tool cover -func=cover_serve.out | awk ' \
		$$1 == "total:" { pct = $$3; sub(/%/, "", pct); \
			printf "combined server+store+blockcache coverage: %s%% (floor $(COVER_SERVE_THRESHOLD)%%)\n", pct; \
			if (pct + 0 < $(COVER_SERVE_THRESHOLD)) { exit 1 } }'

verify: build fmt test vet lint lint-selftest race fuzz-smoke bench-smoke bench-gate cover serve-test cover-serve
	@echo "verify: OK"

clean:
	$(GO) clean ./...
	rm -rf internal/*/testdata/fuzz internal/analysis/flow/testdata/fuzz cover.out cover_serve.out bench_current.txt bench_baseline.txt bench_gate.txt bench_gate.json bench_serve_smoke.json pastrid_scrape.txt pastrid_traces.json pastrid_ops.json pastrid_probes.txt pastrid_report.txt pastrilint.sarif
