// Remote attestation over TCP: one enrolled node, built by NewSystem, runs
// as a network service wrapping the simulated embedded device. The walk
// goes through the paper's single-prover story (§4.2):
//
//   - a standalone PUF() query, reconstructed by the verifier from helper
//     data alone;
//   - attestation sessions over TCP, accepted;
//   - the same node with patched firmware, rejected;
//   - an impostor (a different chip of the same design, running identical
//     software at the genuine clock), rejected because its PUF cannot
//     produce the enrolled chip's responses.
//
// The last act attests across a *lossy* link: a deterministic fault
// injector corrupts and drops frames, the CRC-validated codec detects the
// damage, and the verifier's retry policy (exponential backoff, seeded
// jitter, fresh connection per attempt) recovers — while the impostor's
// REJECTED verdict is never retried, because a rejection is a decision,
// not a fault.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"pufatt"

	"pufatt/internal/attest"
)

func main() {
	payload := make([]uint32, 600)
	for i := range payload {
		payload[i] = pufatt.Mix32(uint32(i) + 99)
	}
	node := func(chip int) *pufatt.System {
		sys, err := pufatt.NewSystem(pufatt.Options{
			Attest:  pufatt.AttestParams{MemWords: 2048, Chunks: 16, BlocksPerChunk: 8},
			Payload: payload,
			Seed:    7,
			ChipID:  chip,
		})
		if err != nil {
			log.Fatal(err)
		}
		return sys
	}

	// The genuine node: its verifier holds this chip's delay model H.
	sys := node(0)
	verifier := sys.Verifier
	fmt.Printf("genuine node: chip %d, %d-bit responses, prover clock %.1f MHz\n",
		sys.Device.ChipID(), sys.Design.ResponseBits(), sys.Prover.FreqHz/1e6)

	// A standalone PUF() query: one challenge seed expands into eight ALU
	// races; the verifier reconstructs the obfuscated output z from the
	// helper data without ever seeing the raw responses.
	z, verified, err := sys.QueryPUF(0xCAFE)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PUF(0xCAFE) = %08x, verifier reconstruction ok: %v\n", pufatt.ZWord(z), verified)

	// An impostor: same design, same software, different silicon, clocked
	// to the genuine node's frequency.
	impostor := node(1).Prover
	impostor.SetFreq(sys.Prover.FreqHz)

	// Serve both on localhost.
	genuineAddr, closeGenuine, err := pufatt.ServeProver("127.0.0.1:0", sys.Prover)
	if err != nil {
		log.Fatal(err)
	}
	defer closeGenuine()
	impostorAddr, closeImpostor, err := pufatt.ServeProver("127.0.0.1:0", impostor)
	if err != nil {
		log.Fatal(err)
	}
	defer closeImpostor()

	link := pufatt.DefaultLink()
	verifier.AllowNetwork(link)
	fmt.Printf("verifier ready: δ = %.4fs over %s link\n", verifier.Delta(), link)

	attestOver := func(label, addr string, n int) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		for i := 0; i < n; i++ {
			res, err := attest.RequestContext(context.Background(), conn, verifier, link)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %s session %d: accepted=%v (%s)\n", label, i+1, res.Accepted, res.Reason)
		}
	}
	fmt.Println("attesting the genuine device at", genuineAddr)
	attestOver("genuine ", genuineAddr, 3)

	// Infect the genuine node: 64 payload words patched. The checksum
	// covers them, so the verdict flips; restoring them brings it back.
	infect := func() {
		for i := 0; i < 64; i++ {
			sys.Prover.Image.Mem[sys.Image.Layout.PayloadAddr+i] ^= 0xFF
		}
	}
	infect()
	fmt.Println("attesting the genuine device with patched firmware")
	attestOver("infected", genuineAddr, 1)
	infect()

	fmt.Println("attesting the impostor device at", impostorAddr)
	attestOver("impostor", impostorAddr, 2)

	// The same attestation across a lossy channel: the injector mangles
	// roughly every other frame (deterministically, from a seed) until it
	// has landed three faults; the retry policy redials through them.
	fmt.Println("\nattesting the genuine device over a lossy link (drop/corrupt, seeded)")
	policy := pufatt.DefaultRetryPolicy()
	policy.MaxAttempts = 6
	policy.AttemptTimeout = 500 * time.Millisecond
	inj := pufatt.NewFaultInjector(pufatt.FaultPlan{Drop: 0.5, Corrupt: 0.5, MaxFaults: 3}, 7)
	dial := func() (net.Conn, error) {
		conn, err := net.Dial("tcp", genuineAddr)
		if err != nil {
			return nil, err
		}
		return inj.Wrap(conn), nil
	}
	res, attempts, err := attest.RequestWithRetry(context.Background(), dial, verifier, link, policy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  recovered: accepted=%v after %d attempt(s), %d fault(s) injected %v\n",
		res.Accepted, attempts, inj.Injected(), inj.Counts())

	// A rejection must not be retried: re-challenging a forger would give
	// it fresh chances. One attempt, verdict final.
	fmt.Println("attesting the impostor with the same retry policy")
	impostorDials := 0
	res, attempts, err = attest.RequestWithRetry(context.Background(), func() (net.Conn, error) {
		impostorDials++
		return net.Dial("tcp", impostorAddr)
	}, verifier, link, policy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  verdict: accepted=%v — %d attempt(s), %d dial(s): the rejection was final\n",
		res.Accepted, attempts, impostorDials)
}
