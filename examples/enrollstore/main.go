// Durable CRP enrollment, demonstrated through a crash: enroll a device
// fleet into the persistent store, consume part of each device's
// authentication budget, "crash" the verifier (drop every in-memory
// handle), recover from snapshot + WAL, and show that every pre-crash
// claim is still enforced — a replayed seed is rejected after the restart,
// which is exactly the property the in-memory database loses with the
// process. Finishes with a compaction and a full attestation session
// driven by the recovered budget.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"

	"pufatt/internal/attest"
	"pufatt/internal/core"
	"pufatt/internal/crp"
	"pufatt/internal/crp/store"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

func main() {
	root, err := os.MkdirTemp("", "pufatt-enrollstore-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	// --- Enrollment: a three-device fleet, 64 seeds each, measured in
	// parallel and written as CRC-checked snapshots under one registry.
	cfg := core.DefaultConfig()
	design := core.MustNewDesign(cfg)
	master := rng.New(7)
	devices := make([]*core.Device, 3)
	opts := store.DefaultOptions()
	opts.NoSync = true // demo runs in a throwaway temp dir

	reg, err := store.OpenRegistry(root, opts)
	if err != nil {
		log.Fatal(err)
	}
	seeds := make([]uint64, 64)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	for id := range devices {
		devices[id] = core.MustNewDevice(design, master, id)
		if _, err := reg.Enroll(devices[id], seeds, 0); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("enrolled %d devices x %d seeds under %s\n", len(devices), len(seeds), root)

	// --- Spend part of device 1's budget.
	h, err := reg.Handle(1)
	if err != nil {
		log.Fatal(err)
	}
	var spent []uint64
	for i := 0; i < 5; i++ {
		seed, err := h.NextUnused()
		if err != nil {
			log.Fatal(err)
		}
		spent = append(spent, seed)
	}
	fmt.Printf("device 1: claimed seeds %v, %d remaining\n", spent, h.Remaining())

	// --- Crash. Close drops every in-memory handle; nothing survives but
	// the snapshot and the claim WAL on disk.
	if err := reg.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verifier crashed (all in-memory state dropped)")

	// --- Recover and verify the security property: every pre-crash claim
	// is still a replay.
	reg2, err := store.OpenRegistry(root, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer reg2.Close()
	h2, err := reg2.Handle(1)
	if err != nil {
		log.Fatal(err)
	}
	for _, seed := range spent {
		if err := h2.Claim(seed); !errors.Is(err, crp.ErrSeedUsed) {
			log.Fatalf("seed %d: expected replay rejection, got %v", seed, err)
		}
	}
	fmt.Printf("recovered: all %d pre-crash claims still rejected as replays, %d remaining\n",
		len(spent), h2.Remaining())

	// --- Compact: fold the recovered WAL into a fresh snapshot.
	if err := reg2.CompactAll(); err != nil {
		log.Fatal(err)
	}
	st, err := reg2.Device(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compacted: WAL now holds %d record(s)\n", st.WALRecords())

	// --- One full attestation session against the recovered budget.
	dev := devices[1]
	params := swatt.Params{MemWords: 1024, Chunks: 4, BlocksPerChunk: 2, PRG: swatt.PRGMix32}
	payload := make([]uint32, 200)
	src := rng.New(11)
	for i := range payload {
		payload[i] = src.Uint32()
	}
	image, err := swatt.BuildImage(params, payload)
	if err != nil {
		log.Fatal(err)
	}
	prover, v, err := attest.NewPair(dev, image)
	if err != nil {
		log.Fatal(err)
	}
	v.WithSeedBudget(h2)

	res, err := attest.RunSession(v, prover, attest.DefaultLink())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attestation with recovered budget: accepted=%v (%.4fs <= δ=%.4fs), %d seeds left\n",
		res.Accepted, res.Elapsed, res.Delta, h2.Remaining())
}
