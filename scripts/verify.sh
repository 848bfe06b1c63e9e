#!/bin/sh
# verify.sh — the repository's verification gate.
#
# Runs the tier-1 commands (build + full test suite), static vetting, vet
# and tests of the nested bench module (so a change to an exported API it
# calls fails here), one iteration of every root bench (so the paper-figure
# and ablation regenerators keep running) and of every sim layer bench, a
# smoke run of every example that exits by itself, a smoke run of the
# pufatt-attest CLI through a durable store's enrollment and one
# re-enrollment, a one-second traced run of the benchmark's cluster
# workload (correct, with replicated seed claims timed under
# cluster.claim), a one-second traced run of its verifier workload
# (correct, all 60 reference lookups per op through the traced
# core.ReferenceSource seam, and at most 64 mallocs per op, which guards
# the allocation-free recovery path), and one race-detected run over every
# package that runs work on goroutines:
# the attestation stack (fault injection, retry, fleet and cluster sweeps,
# failover, admission, shutdown), telemetry, the claim ledgers, the
# parallel batch engines, the attacks' parallel training, and the
# dashboard.
set -eu

cd "$(dirname "$0")/.."

# The race-detected packages, one per line; `make race` reads the same file.
RACE_PKGS=$(cat scripts/race-packages)

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

echo "== root benches, one iteration each (paper figures, ablations, microbenchmarks)"
go test -run '^$' -bench . -benchtime 1x .

echo "== sim layer benches, one iteration each (scalar and bitsliced passes)"
go test -run '^$' -bench . -benchtime 1x ./internal/sim

echo "== examples: run each one that exits by itself (fleetwatch serves for its window)"
for dir in examples/*/; do
    name=$(basename "$dir")
    [ "$name" = fleetwatch ] && continue
    go run "./examples/$name" >/dev/null
done

echo "== pufatt-attest: local sessions, then a store enrolled, attested, re-enrolled and attested at epoch 1"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/pufatt-attest" ./cmd/pufatt-attest
attest() {
    "$tmp/pufatt-attest" "$@" >"$tmp/out"
    if grep -q REJECTED "$tmp/out"; then
        cat "$tmp/out" >&2
        echo "pufatt-attest $*: a session was rejected" >&2
        exit 1
    fi
}
attest -mode local -sessions 2
attest -store-dir "$tmp/store" -enroll 16
attest -store-dir "$tmp/store" -mode local -sessions 2
attest -store-dir "$tmp/store" -reenroll 16
attest -store-dir "$tmp/store" -mode local -sessions 2

echo "== traced cluster smoke run: correct, and seed claims traced as cluster.claim"
# A run that fails a check still prints its result line last; the check below shows it.
bash bench/run.sh --workload cluster --seed 1 --seconds 1 --trace 1 >"$tmp/cluster" || true
last=$(tail -n 1 "$tmp/cluster")
if ! echo "$last" | grep -q '"correct":true' ||
    ! echo "$last" | grep -o '"cluster.claim.share":{"value":[^,}]*' | awk -F: '{ v = $3 } END { exit !(v > 0) }'; then
    echo "$last" >&2
    echo "traced cluster run: want \"correct\":true and a nonzero cluster.claim.share" >&2
    exit 1
fi

echo "== traced verifier smoke run: correct, every reference lookup traced, allocation-free recovery"
bash bench/run.sh --workload verifier --seed 1 --seconds 1 --trace 1 >"$tmp/verifier" || true
last=$(tail -n 1 "$tmp/verifier")
metric() {
    echo "$last" | grep -o "\"$1\":{\"value\":[^,}]*" | awk -F: '{ v = $3 } END { print v + 0 }'
}
calls=$(metric core.reference.calls_per_op)
mallocs=$(metric runtime.mallocs_per_op)
if ! echo "$last" | grep -q '"correct":true' ||
    ! awk -v c="$calls" -v m="$mallocs" 'BEGIN { exit !(c == 60 && m <= 64) }'; then
    echo "$last" >&2
    echo "traced verifier run: want \"correct\":true, core.reference.calls_per_op 60 (got $calls) and runtime.mallocs_per_op <= 64 (got $mallocs)" >&2
    exit 1
fi

echo "== go test -race (attestation, telemetry, claim ledgers, batch engines, attacks, dashboard)"
go test -race $RACE_PKGS

echo "verify: OK"
