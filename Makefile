# Makefile — developer entry points. `make verify` is the full gate:
# gofmt, tier-1 build+tests, vet, and the race-detected suites.
#
# The repository's benchmark is `bash bench/run.sh` (declared in
# BENCHMARK.json, documented in bench/README.md): four workloads measured
# end to end and layer by layer, judged by a same-host A/B of base and
# head with `bash bench/run.sh compare`. `make bench` is the older
# root-package snapshot kept for the microbenchmarks: it writes
# BENCH_PR10.json (the last snapshot taken) and gates it
# against BENCH_PR9.json: a >10% ns/op regression on the critical
# Figure3/Figure4 benches fails the target, as does >3% on the
# attestation-protocol hot path (run alongside its profiler-enabled twin,
# so the continuous-profiling overhead is measured, not assumed). A
# separate single-shot pass appends the cluster load SLO curves (p99,
# reject_overload, sessions/s at 1k/5k/10k provers) to the same snapshot.
# Snapshots taken on different machines do not compare; use the bench/
# A/B for any speed claim.

GO ?= go

.PHONY: build test vet race verify bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race-detected packages: the same list scripts/verify.sh runs.
race:
	$(GO) test -race ./internal/attest/... ./internal/telemetry/... ./internal/crp/... ./internal/sim/... ./internal/core/... ./internal/experiments/... ./internal/attacks ./cmd/pufatt-top

verify:
	./scripts/verify.sh

# Run the facade benchmarks and record them as JSON for cross-PR
# comparison, then gate against the previous PR's snapshot (10% ns/op
# threshold, Figure3/Figure4 critical). Each benchmark runs 20
# iterations per sample, five samples, and compare collapses repeats
# to the fastest sample — single-iteration samples are dominated by
# cold caches and GC pauses from earlier benchmarks in the process,
# which made the gate flap on loaded machines. Snapshots before
# BENCH_PR6 were single-iteration, so deltas against them overstate
# improvement; from PR6 on the comparison is like-for-like. The
# gate-critical benchmarks get a second, longer sampling pass: at 20
# iterations a sub-microsecond benchmark measures ~10 µs of wall time,
# so a single timer interrupt or clock-ramp stall inflates the sample
# 2x and the gate flaps. 2000 iterations amortize that. Both passes
# feed one snapshot and benchjson keeps the fastest sample per
# benchmark. The cluster load benchmark gets its own single-shot pass
# (PUFATT_BENCH_CLUSTER gates it out of the sweep passes): one RunLoad
# per level IS the measurement — the SLO numbers come from the report
# metrics, and 10k provers at 20x/count-5 would take half an hour for
# no extra signal.
bench:
	{ $(GO) test -run '^$$' -bench . -benchtime 20x -count 5 . ; \
	  $(GO) test -run '^$$' -bench 'Figure3|Figure4|AttestationProtocol|BatchEval' -benchtime 2000x -count 5 . ; \
	  PUFATT_BENCH_CLUSTER=1 $(GO) test -run '^$$' -bench 'ClusterLoadSLO' -benchtime 1x -count 1 -timeout 30m . ; } | $(GO) run ./scripts/benchjson > BENCH_PR10.json
	@cat BENCH_PR10.json
	@if [ -f BENCH_PR9.json ]; then $(GO) run ./scripts/benchjson compare -threshold 0.10 -critical 'Figure3|Figure4' -strict BENCH_PR9.json BENCH_PR10.json; fi
	@if [ -f BENCH_PR9.json ]; then $(GO) run ./scripts/benchjson compare -threshold 0.03 -critical 'AttestationProtocol' -strict BENCH_PR9.json BENCH_PR10.json; fi
