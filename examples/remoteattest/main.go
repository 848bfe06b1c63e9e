// Remote attestation over TCP: the prover runs as a network service
// wrapping the simulated embedded device; the verifier connects, challenges
// it repeatedly, and also demonstrates that an impersonating device (a
// different chip of the same design, running identical software) is
// rejected because its PUF cannot produce the enrolled chip's responses.
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
	params := pufatt.AttestParams{MemWords: 2048, Chunks: 16, BlocksPerChunk: 8}
	payload := make([]uint32, 600)
	for i := range payload {
		payload[i] = pufatt.Mix32(uint32(i) + 99)
	}
	image, err := pufatt.BuildAttestationImage(params, payload)
	if err != nil {
		log.Fatal(err)
	}
	design, err := pufatt.NewDesign(pufatt.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// The genuine device, enrolled with the verifier.
	genuine, err := pufatt.NewDevice(design, 7, 0)
	if err != nil {
		log.Fatal(err)
	}
	genuinePort, err := pufatt.NewDevicePort(genuine)
	if err != nil {
		log.Fatal(err)
	}
	genuineProver := pufatt.NewProver(image.Clone(), genuinePort, 1)
	genuineProver.TuneClock(0.98)

	// An impostor: same design, same software, different silicon.
	impostor, err := pufatt.NewDevice(design, 7, 1)
	if err != nil {
		log.Fatal(err)
	}
	impostorPort, err := pufatt.NewDevicePort(impostor)
	if err != nil {
		log.Fatal(err)
	}
	impostorProver := pufatt.NewProver(image.Clone(), impostorPort, genuineProver.FreqHz)

	// Serve both on localhost.
	genuineAddr, closeGenuine, err := pufatt.ServeProver("127.0.0.1:0", genuineProver)
	if err != nil {
		log.Fatal(err)
	}
	defer closeGenuine()
	impostorAddr, closeImpostor, err := pufatt.ServeProver("127.0.0.1:0", impostorProver)
	if err != nil {
		log.Fatal(err)
	}
	defer closeImpostor()

	// The verifier was enrolled with the GENUINE chip's delay model.
	verifier, err := pufatt.NewVerifier(image, genuine.Emulator(), genuineProver.FreqHz, genuinePort.Votes)
	if err != nil {
		log.Fatal(err)
	}
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
