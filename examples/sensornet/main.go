// Sensor-network fleet attestation: the motivating deployment of the
// paper's introduction. A base station (verifier) holds the emulation model
// of every enrolled node; it periodically sweeps the fleet over lossy
// radio links, and the degradation report keeps the two failure regimes
// apart: a node whose firmware was modified is COMPROMISED (the verifier
// completed a session and rejected it), while a node whose link is down is
// UNREACHABLE (no verdict — the sweep retried and gave up). Nodes that
// stay unreachable sweep after sweep are quarantined by a per-node circuit
// breaker so a dead region cannot consume the sweep's retry budget forever.
package main

import (
	"context"
	"fmt"
	"log"

	"pufatt"
)

const fleetSize = 8

type node struct {
	id     int
	prover *pufatt.Prover
	port   *pufatt.DevicePort
}

func main() {
	params := pufatt.AttestParams{MemWords: 1024, Chunks: 8, BlocksPerChunk: 8}
	firmware := make([]uint32, 400)
	for i := range firmware {
		firmware[i] = pufatt.Mix32(uint32(i) ^ 0x5e75ed)
	}
	image, err := pufatt.BuildAttestationImage(params, firmware)
	if err != nil {
		log.Fatal(err)
	}
	design, err := pufatt.NewDesign(pufatt.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Manufacture and enroll the fleet. Every node runs the SAME firmware
	// image; only the silicon differs — and that difference is the
	// authentication anchor. Node 5's radio link is flaky (drops ~half its
	// frames, transiently) and node 6's is dead: the fault-injection
	// harness models both deterministically.
	fleet := pufatt.NewFleet()
	var nodes []*node
	link := pufatt.DefaultLink()
	for id := 0; id < fleetSize; id++ {
		dev, err := pufatt.NewDevice(design, 1000, id)
		if err != nil {
			log.Fatal(err)
		}
		port, err := pufatt.NewDevicePort(dev)
		if err != nil {
			log.Fatal(err)
		}
		prover := pufatt.NewProver(image.Clone(), port, 1)
		prover.TuneClock(0.98)
		v, err := pufatt.NewVerifier(image, dev.Emulator(), prover.FreqHz, port.Votes)
		if err != nil {
			log.Fatal(err)
		}
		v.AllowNetwork(link)
		var agent pufatt.ProverAgent = prover
		switch id {
		case 5: // flaky link: two dropped frames, then clean
			agent = pufatt.NewFaultyLink(prover, pufatt.FaultPlan{Drop: 1, MaxFaults: 2}, 42)
		case 6: // dead link: drops everything, forever
			agent = pufatt.NewFaultyLink(prover, pufatt.FaultPlan{Drop: 1}, 43)
		}
		if err := fleet.Enroll(id, v, agent, link); err != nil {
			log.Fatal(err)
		}
		nodes = append(nodes, &node{id: id, prover: prover, port: port})
	}
	fmt.Printf("enrolled %d nodes (emulation models extracted at manufacturing)\n", fleet.Size())
	fmt.Println("node 5: flaky radio (transient), node 6: dead radio (persistent)")
	fmt.Println()

	policy := pufatt.RetryPolicy{MaxAttempts: 3} // per node; quarantined nodes get one probe
	sweep := func(tag string) {
		fmt.Printf("fleet sweep (%s):\n", tag)
		report := fleet.Sweep(context.Background(), policy)
		for _, r := range report.Results {
			status := "OK         "
			switch {
			case r.Compromised():
				status = "COMPROMISED"
			case r.Attempts == 0:
				status = "QUARANTINED"
			case r.Unreachable():
				status = "UNREACHABLE"
			}
			fmt.Printf("  node %d: %s (%d attempt(s), %.1f ms)\n",
				r.NodeID, status, r.Attempts, r.Result.Elapsed*1e3)
		}
		if len(report.Compromised) > 0 {
			fmt.Printf("  -> compromised (verifier REJECTED — security event): %v\n", report.Compromised)
		}
		if len(report.Unreachable) > 0 {
			fmt.Printf("  -> unreachable (transport exhausted — no verdict):   %v\n", report.Unreachable)
		}
		if len(report.Quarantined) > 0 {
			fmt.Printf("  -> quarantined by circuit breaker: %v\n", report.Quarantined)
		}
		fmt.Println()
	}

	sweep("all firmware intact; node 5 recovers via retries")

	// Node 3 is compromised in the field: 48 firmware words patched.
	victim := nodes[3]
	for i := 0; i < 48; i++ {
		victim.prover.Image.Mem[image.Layout.PayloadAddr+40+i] ^= 0xA5A5
	}
	fmt.Println("node 3 firmware patched by an attacker...")
	sweep("after compromise — note node 3 ≠ node 6 in the report")

	// The attacker 'cleans up' — restores the firmware. Attestation
	// recovers, showing the sweep is a live integrity check, not a fuse.
	for i := 0; i < 48; i++ {
		victim.prover.Image.Mem[image.Layout.PayloadAddr+40+i] ^= 0xA5A5
	}
	fmt.Println("node 3 firmware restored...")
	sweep("after restoration")

	// Node 6 has now been unreachable for three sweeps: the circuit
	// breaker opens and later sweeps only probe it.
	sweep("node 6 quarantined")
}
