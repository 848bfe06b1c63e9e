# Makefile — developer entry points. `make verify` is the gate: gofmt,
# tier-1 build+tests, vet, the nested bench module's vet+tests, a one-pass
# smoke run of the root paper-figure and ablation benches and of the sim
# layer benches, a smoke run of the examples (fleetwatch killed by a
# timeout inside its serve window) and of the pufatt-attest CLI,
# a traced one-second run of the benchmark's cluster workload (it must
# report correct and a nonzero cluster.claim.share, so the seed claims
# still go through the traced budget), a traced one-second run of its
# verifier workload (correct, 60 traced reference lookups and at most 64
# mallocs per op), and the race-detected suites.
#
# The repository's benchmark is `bash bench/run.sh` (declared in
# BENCHMARK.json, documented in bench/README.md): four workloads measured
# end to end and layer by layer, judged by a same-host A/B of base and
# head with `bash bench/run.sh compare`.

GO ?= go

.PHONY: build test vet race verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race-detected packages, one per line in scripts/race-packages, which
# scripts/verify.sh reads too.
RACE_PKGS := $(shell cat scripts/race-packages)

race:
	$(GO) test -race $(RACE_PKGS)

verify:
	./scripts/verify.sh
