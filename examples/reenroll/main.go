// Rolling re-enrollment across a PUF reconfiguration epoch: the device
// lifetime answer to the CRP database's bounded budget. The demo enrolls a
// device, burns its seed budget down to the low-budget watermark with live
// attestation sessions, lets the Reenroller measure a fresh epoch in the
// background while sessions continue, and cuts over — store commit plus
// prover reconfiguration — behind the epoch gate. It then demonstrates the
// two isolation properties the epoch model guarantees:
//
//  1. no old-epoch seed is claimable after the cutover (the retired CRP
//     space is worthless, even to an attacker who modeled it), and
//  2. each epoch's delay instance is reproducible for audit — the same
//     (device seed, epoch) pair always yields the same references — while
//     distinct epochs disagree on a large fraction of response bits.
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
	root, err := os.MkdirTemp("", "pufatt-reenroll-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)

	// --- The live device and its enrollment twin. The twin is the
	// facility-side instance of the same manufacturing seed: the Reenroller
	// reconfigures and measures it in the background while the live device
	// keeps answering attestation traffic on the old epoch.
	cfg := core.DefaultConfig()
	design := core.MustNewDesign(cfg)
	dev := core.MustNewDevice(design, rng.New(42), 0)
	twin := core.MustNewDevice(design, rng.New(42), 0)

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
	prover, verifier, err := attest.NewPair(dev, image)
	if err != nil {
		log.Fatal(err)
	}

	// --- Epoch-0 enrollment: 10 single-use seeds, durable.
	opts := store.DefaultOptions()
	opts.NoSync = true // demo runs in a throwaway temp dir
	seeds := make([]uint64, 10)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	st, err := store.Enroll(root, twin, seeds, 0, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	verifier.Device = "node-0"
	verifier.WithSeedBudget(st)
	fmt.Printf("enrolled epoch %d: %d seeds\n", st.Epoch(), st.Remaining())

	// --- The rolling re-enrollment pipeline. The gate serialises sessions
	// against the cutover; OnCutover flips the live prover's device and the
	// verifier's emulation pipeline in the same exclusive section, so no
	// session ever straddles two epochs.
	gate := &attest.EpochGate{}
	verifier.Gate = gate
	ren := &attest.Reenroller{
		Store:         st,
		Device:        twin,
		DeviceName:    "node-0",
		Watermark:     3,
		SeedsPerEpoch: 10,
		Gate:          gate,
		OnCutover: func(_, epoch uint32) {
			dev.SetEpoch(epoch)
			verifier.Pipeline = core.MustNewVerifierPipeline(dev.Emulator())
			fmt.Printf("cutover: live device reconfigured to epoch %d\n", epoch)
		},
	}

	// --- Burn the budget to the watermark under live attestation.
	session := 0
	attestOnce := func() {
		session++
		res, err := attest.RunSession(verifier, prover, attest.DefaultLink())
		if err != nil {
			log.Fatalf("session %d: %v", session, err)
		}
		if !res.Accepted {
			log.Fatalf("session %d rejected: %s", session, res.Reason)
		}
	}
	for st.Remaining() > ren.Watermark {
		attestOnce()
	}
	fmt.Printf("budget at watermark: %d seeds left after %d sessions\n", st.Remaining(), session)

	// --- The watermark trips the background re-enrollment; attestation
	// keeps draining the old epoch until the cutover commits.
	if !ren.Check() {
		log.Fatal("watermark reached but re-enrollment did not trigger")
	}
	attestOnce() // rides the old epoch (or the new one, if the cutover won)
	if err := ren.Wait(); err != nil {
		log.Fatal(err)
	}
	attestOnce() // definitely the new epoch
	fmt.Printf("epoch %d live: %d seeds, %d total sessions, zero failures\n",
		st.Epoch(), st.Remaining(), session)

	// --- Isolation property 1: the retired epoch's seeds are dead. Even
	// the ones that were never used cannot be claimed.
	for _, seed := range seeds {
		if err := st.Claim(seed); !errors.Is(err, crp.ErrUnknownSeed) {
			log.Fatalf("retired seed %d still claimable: %v", seed, err)
		}
	}
	fmt.Printf("retired epoch 0: all %d original seeds rejected\n", len(seeds))

	// --- Isolation property 2: epochs are deterministic and mutually
	// decorrelated. An auditor rebuilding the device from its manufacturing
	// seed can revisit any epoch and reproduce its references exactly.
	audit := core.MustNewDevice(design, rng.New(42), 0)
	ch := design.ExpandChallenge(12345, 0)
	audit.SetEpoch(1)
	r1 := append([]uint8(nil), audit.NoiselessResponse(ch)...)
	audit.SetEpoch(0)
	r0 := append([]uint8(nil), audit.NoiselessResponse(ch)...)
	twin.SetEpoch(1) // twin is at epoch 1 already; re-assert for clarity
	live1 := twin.NoiselessResponse(ch)
	match, diff := 0, 0
	for i := range r1 {
		if r1[i] == live1[i] {
			match++
		}
		if r1[i] != r0[i] {
			diff++
		}
	}
	fmt.Printf("audit: epoch-1 rebuild matches live instance on %d/%d bits; epochs 0 vs 1 differ on %d/%d bits\n",
		match, len(r1), diff, len(r1))
	if match != len(r1) {
		log.Fatal("audit reconstruction failed: epochs are not deterministic")
	}
	if diff == 0 {
		log.Fatal("epoch reconfiguration changed nothing")
	}
}
