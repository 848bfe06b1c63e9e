// Fleet monitoring: the observability side of PUFatt attestation. A base
// station sweeps an enrolled fleet while the telemetry admin endpoint
// serves live per-device health. Two nodes misbehave in ways a verdict
// alone cannot separate from luck:
//
//   - node 2 answers through a proxy that adds latency — every session is
//     still ACCEPTED (the delay stays inside δ), but its p95 round-trip
//     breaks the timing SLO and the health registry turns it SUSPECT. In
//     the paper's threat model that timing inflation is exactly what an
//     overclocked or relayed prover looks like.
//   - node 5's radio drops most frames — transport failures and retries
//     push it DEGRADED (an availability problem, not a security one).
//
// Every failing session also leaves a flight-recorder dump: a JSON-lines
// snapshot of the protocol-event journal tagged with the session's trace
// ID, so the dump can be lined up against the span tree at /debug/traces.
//
// Run it, then (while it sleeps at the end) explore:
//
//	curl http://localhost:7790/devices       # per-device SLO judgement
//	curl http://localhost:7790/healthz       # fleet summary; 503 = suspect
//	curl http://localhost:7790/debug/traces  # stitched session span trees
//	curl http://localhost:7790/debug/journal # recent protocol events
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"pufatt"
)

const fleetSize = 6

// proxiedAgent relays a prover and adds fixed latency to every answer —
// the response itself is perfectly genuine, only late.
type proxiedAgent struct {
	inner pufatt.ProverAgent
	extra float64 // seconds added per response
}

func (a *proxiedAgent) Respond(ch pufatt.Challenge) (pufatt.Response, float64, error) {
	resp, compute, err := a.inner.Respond(ch)
	return resp, compute + a.extra, err
}

func main() {
	params := pufatt.AttestParams{MemWords: 1024, Chunks: 8, BlocksPerChunk: 8}
	firmware := make([]uint32, 400)
	for i := range firmware {
		firmware[i] = pufatt.Mix32(uint32(i) ^ 0xf1ee7)
	}
	image, err := pufatt.BuildAttestationImage(params, firmware)
	if err != nil {
		log.Fatal(err)
	}
	design, err := pufatt.NewDesign(pufatt.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// The flight recorder dumps the protocol journal here whenever a
	// session fails; the SLO gets a deployment-specific timing bound after
	// the first sweep calibrates the honest round-trip.
	flightDir := filepath.Join(os.TempDir(), "pufatt-fleetwatch")
	tel := pufatt.AttestMetrics()
	tel.SetFlightDir(flightDir)

	fleet := pufatt.NewFleet()
	link := pufatt.DefaultLink()
	var verifiers []*pufatt.Verifier
	for id := 0; id < fleetSize; id++ {
		dev, err := pufatt.NewDevice(design, 2000, id)
		if err != nil {
			log.Fatal(err)
		}
		port, err := pufatt.NewDevicePort(dev)
		if err != nil {
			log.Fatal(err)
		}
		prover := pufatt.NewProver(image.Clone(), port, 1)
		prover.TuneClock(0.98)
		verifier, err := pufatt.NewVerifier(image, dev.Emulator(), prover.FreqHz, port.Votes)
		if err != nil {
			log.Fatal(err)
		}

		var agent pufatt.ProverAgent = prover
		switch id {
		case 2: // answers through a latency-adding proxy, stays inside δ
			agent = &proxiedAgent{inner: prover, extra: 0.030}
		case 5: // flaky radio: most frames dropped, transiently
			agent = pufatt.NewFaultyLink(prover, pufatt.FaultPlan{Drop: 0.7}, 99)
		}
		if err := fleet.Enroll(id, verifier, agent, link); err != nil {
			log.Fatal(err)
		}
		verifiers = append(verifiers, verifier)
	}

	addr, stopAdmin, err := pufatt.StartAdmin("localhost:7790", nil)
	if err != nil {
		// Port taken (another fleetwatch?): fall back to an ephemeral one.
		addr, stopAdmin, err = pufatt.StartAdmin("localhost:0", nil)
		if err != nil {
			log.Fatal(err)
		}
	}
	defer stopAdmin()
	fmt.Printf("fleetwatch: admin surface at http://%s (devices, healthz, traces, journal)\n", addr)
	fmt.Printf("fleetwatch: flight dumps in %s\n\n", flightDir)

	// Sweep 1 calibrates: the slowest honest round-trip plus a 12 ms guard
	// band sets the timing SLO. Node 2's proxy adds 30 ms on top of an
	// honest answer, so it lands over the bound while every one of its
	// verdicts stays accepted — challenge-to-challenge compute variance
	// alone never crosses the guard band.
	policy := pufatt.RetryPolicy{MaxAttempts: 3}
	report := fleet.Sweep(context.Background(), policy)
	var calib float64
	for _, r := range report.Results {
		if r.NodeID != 2 && r.Err == nil && r.Result.Elapsed > calib {
			calib = r.Result.Elapsed
		}
	}
	slo := tel.Health.SLO()
	slo.MaxRTTP95 = calib + 0.012
	slo.MaxTransportRate = 0.3 // a radio losing >30% of its sessions is degraded
	slo.MinSessions = 4
	tel.Health.SetSLO(slo)
	fmt.Printf("sweep 1 (calibration): %s\n", report.String())
	fmt.Printf("timing SLO: p95 RTT ≤ %.4fs (slowest honest RTT %.4fs + 12ms)\n\n", slo.MaxRTTP95, calib)

	for i := 2; i <= 6; i++ {
		report = fleet.Sweep(context.Background(), policy)
		fmt.Printf("sweep %d: %s\n", i, report.String())
	}

	// The health registry's judgement, as /devices serves it.
	fmt.Println("\nper-device health:")
	for _, v := range verifiers {
		d, ok := tel.Health.Get(v.Device)
		if !ok {
			continue
		}
		fmt.Printf("  %-8s %-9s sessions=%d rejected=%d transport=%d reasons=%v\n",
			d.Device, d.Status, d.Sessions, d.Rejected, d.Transport, d.Reasons)
	}
	sum := tel.Health.Summary()
	fmt.Printf("fleet: %s (%d ok, %d degraded, %d suspect of %d)\n",
		sum.Status(), sum.OK, sum.Degraded, sum.Suspect, sum.Devices)

	dumps, _ := filepath.Glob(filepath.Join(flightDir, "flight-*.jsonl"))
	fmt.Printf("flight dumps written: %d (each header carries the failing session's trace ID)\n", len(dumps))

	fmt.Println("\nserving the admin endpoint for 30s — curl it now (ctrl-C to stop early)")
	time.Sleep(30 * time.Second)
}
