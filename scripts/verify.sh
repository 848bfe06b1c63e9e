#!/bin/sh
# verify.sh — the repository's verification gate.
#
# Runs the tier-1 commands (build + full test suite), static vetting, vet
# and tests of the nested bench module (so a change to an exported API it
# calls fails here), the race-detected attestation robustness tests (which exercise every
# injected fault class: drop, corrupt, truncate, delay, duplicate), the
# race-detected parallel batch-evaluation packages plus a targeted
# determinism smoke across the packages that fan work out to goroutines,
# the distributed verifier tier (failover, replication lag, admission),
# and the shutdown/leak regression suite.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== bench module: go vet + go test (a nested module root ./... never builds)"
(cd bench && go vet ./... && go test ./...)

echo "== go test -race ./internal/attest/... (fault-injection suite)"
go test -race ./internal/attest/...

echo "== go test -race ./internal/telemetry/... (tracer ring, journal, health registry)"
go test -race ./internal/telemetry/...

echo "== go test -race ./internal/crp/... (database + durable store claim paths)"
go test -race ./internal/crp/...

echo "== go test -race sim/core/experiments (parallel batch engine)"
go test -race ./internal/sim/... ./internal/core/... ./internal/experiments/...

echo "== go test -race -run TestParallelDeterminism (smoke across fan-out users)"
go test -race -run TestParallelDeterminism ./internal/core/... ./internal/experiments/... ./internal/attacks/...

echo "== go test -race bitsliced engine suite (cross-engine equivalence, lane kernels, linear fast model)"
go test -race -run 'Sliced|Bitslice|LinearModel|LinearEngine|EvalEngine' ./internal/sim ./internal/core

echo "== go test -race -run TestBitsliceDeterministicAcrossWorkers (bitslice worker-count determinism smoke)"
go test -race -run TestBitsliceDeterministicAcrossWorkers ./internal/core

echo "== go test -race epoch lifecycle suite (cutover kill-and-recover, concurrent re-enrollment vs live claims, claim-ledger conformance across sinks)"
go test -race -run 'Epoch|Reenroll|Exhaust|Kill|WALClaimsSplit|Conformance|CallerOwned|EpochOrder' ./internal/crp ./internal/crp/store ./internal/attest ./internal/attest/cluster ./internal/core

echo "== go test -race observability v3 suite (history/alert/federation, admin under load, flight-dump uniqueness)"
go test -race -run 'TimeSeries|Alert|Federat|Observability|DebugVars|ConcurrentFlightDump|HealthSnapshotConsistency|AdminRoute' ./internal/telemetry ./internal/attest ./cmd/pufatt-top

echo "== go test -race cluster suite (leader-kill failover, replication-lag fail-closed, admission backpressure, load smoke)"
go test -race -run 'Ring|Group|Promotion|AutoFailover|DeviceLog|Admission|Cluster|Attest|RunLoad|ReferenceResponse|Conformance|CallerOwned|EpochOrder' ./internal/attest/cluster

echo "== go test -race shutdown/leak regression suite (guardConn lifecycle, drain deadline, accept-race, eviction hammer)"
go test -race -run 'GuardConn|ServerDrain|ServerClose|ServerSerialises|RegistryEviction' ./internal/attest ./internal/crp/store

echo "== go test -race observability v4 suite (profiler ring single-flight, runtime collector, cluster span stitching, canary prober, queue-wait alert chain)"
go test -race -run 'Profiler|SanitizeTrigger|RuntimeCollector|GCPauseRule|AlertTriggersProfileCapture|ClusterSpanStitching|ReplLagGauge|Prober|ProbeDead|QueueWaitAlert|ClusterAdminRoutes|RenderProbes|FetchSnapshotProbes' ./internal/telemetry ./internal/attest ./internal/attest/cluster ./cmd/pufatt-top

echo "verify: OK"
