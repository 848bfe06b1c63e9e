// Federated fleet observability: two verifier shards, one pane of glass.
//
// A deployment rarely has a single verifier. Here an "east" and a "west"
// shard each attest their own slice of the fleet with a fully private
// telemetry bundle (registry, journal, health, history, alerts) served on
// their own admin endpoint. A federator then scrapes both and re-serves
// the union — every series, device, and alert labeled with its source
// shard — so one dashboard covers the whole fleet.
//
// West node 2 answers through a jittery link that inflates every
// round-trip by 30 ms while the response stays genuine: the PUFatt timing
// signature of a proxied or overclocked prover. Its RTT history crosses
// the shard's timing SLO, the burn-rate alert fires on the west shard,
// and both facts surface through the federated endpoint.
//
// Run it, then explore while it serves:
//
//	curl http://localhost:7793/healthz          # merged fleet health (worst wins)
//	curl http://localhost:7793/devices          # per-device health + "source" label
//	curl http://localhost:7793/alerts           # burn-rate alerts across shards
//	curl 'http://localhost:7793/metrics/history?metric=attest_rtt_seconds'
//	curl http://localhost:7793/federation       # per-source scrape accounting
//	go run ./cmd/pufatt-top -addr http://localhost:7793
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pufatt"
	"pufatt/internal/attest"
	"pufatt/internal/telemetry"
)

const nodesPerShard = 3

// shard is one verifier deployment with a private telemetry bundle.
type shard struct {
	name  string
	tel   *attest.Telemetry
	fleet *attest.Fleet
	addr  string
}

func buildShard(name string, design *pufatt.Design, image *pufatt.Image, baseID int, jitterNode int) *shard {
	tel := attest.NewTelemetry(telemetry.NewRegistry(), telemetry.NewTracer(256))
	fleet := attest.NewFleet()
	fleet.Telemetry = tel
	for i := 0; i < nodesPerShard; i++ {
		id := baseID + i
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
		verifier.Device = fmt.Sprintf("%s-node-%d", name, i)

		var agent attest.ProverAgent = prover
		if i == jitterNode {
			// The new jitter fault class: the session always completes and
			// the checksum is genuine — only the round-trip is inflated.
			// Exactly the signal the timing SLO and RTT burn alert watch.
			agent = attest.NewFaultyLink(prover, attest.FaultPlan{Jitter: 1, JitterSeconds: 0.030}, uint64(id))
		}
		if err := fleet.Enroll(id, verifier, agent, attest.DefaultLink()); err != nil {
			log.Fatal(err)
		}
	}
	return &shard{name: name, tel: tel, fleet: fleet}
}

func main() {
	design, err := pufatt.NewDesign(pufatt.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	params := pufatt.AttestParams{MemWords: 1024, Chunks: 8, BlocksPerChunk: 8}
	firmware := make([]uint32, 300)
	for i := range firmware {
		firmware[i] = pufatt.Mix32(uint32(i) ^ 0xfed5)
	}
	image, err := pufatt.BuildAttestationImage(params, firmware)
	if err != nil {
		log.Fatal(err)
	}

	east := buildShard("east", design, image, 0, -1)
	west := buildShard("west", design, image, 100, 2)
	shards := []*shard{east, west}
	policy := attest.RetryPolicy{MaxAttempts: 3}

	// Calibration sweep: the slowest honest round-trip plus a guard band
	// sets each shard's timing SLO. West node 2's extra 30 ms lands far
	// outside it.
	var calib float64
	for _, s := range shards {
		report := s.fleet.Sweep(context.Background(), policy)
		for _, r := range report.Results {
			honest := !(s == west && r.NodeID == 102)
			if honest && r.Err == nil && r.Result.Elapsed > calib {
				calib = r.Result.Elapsed
			}
		}
	}
	for _, s := range shards {
		slo := s.tel.Health.SLO()
		// The guard band must dominate histogram-bucket quantization: the
		// health registry's p95 is interpolated within a bucket, so honest
		// traffic at ~13 ms reports p95 ≈ 24 ms. 15 ms of guard keeps the
		// honest fleet green while west node 2's extra 30 ms lands far out.
		slo.MaxRTTP95 = calib + 0.015
		slo.MinSessions = 3
		s.tel.SetSLO(slo)
		// Demo-friendly burn windows: the default 1 min / 5 min SRE
		// windows would keep this example running for minutes before the
		// slow window fills. Two and eight seconds show the same dual
		// window mechanics at demo speed.
		rules := attest.DefaultAlertRules(slo)
		for i := range rules {
			rules[i].FastWindow = 2 * time.Second
			rules[i].SlowWindow = 8 * time.Second
		}
		s.tel.Alerts.SetRules(rules)
	}
	fmt.Printf("fleetfed: timing SLO p95 RTT ≤ %.4fs (honest calibration %.4fs + 15ms guard)\n", calib+0.015, calib)

	// Each shard serves its own admin surface and samples its history
	// twice a second.
	ports := []string{"localhost:7791", "localhost:7792"}
	for i, s := range shards {
		addr, stop, err := attest.StartAdmin(ports[i], s.tel)
		if err != nil {
			addr, stop, err = attest.StartAdmin("localhost:0", s.tel)
			if err != nil {
				log.Fatal(err)
			}
		}
		defer stop()
		s.addr = addr.String()
		s.tel.History.SetWindow(500 * time.Millisecond)
		stopObs := s.tel.StartObservability(500 * time.Millisecond)
		defer stopObs()
		fmt.Printf("fleetfed: %s shard admin at http://%s\n", s.name, s.addr)
	}

	// The federator scrapes both shards and re-serves the union.
	fed, err := pufatt.NewFleetFederator([]pufatt.ScrapeSource{
		{Name: "east", BaseURL: "http://" + east.addr},
		{Name: "west", BaseURL: "http://" + west.addr},
	})
	if err != nil {
		log.Fatal(err)
	}
	fed.SetStaleAfter(5 * time.Second)
	fedAddr, stopFed, err := pufatt.StartFederation("localhost:7793", fed, time.Second)
	if err != nil {
		fedAddr, stopFed, err = pufatt.StartFederation("localhost:0", fed, time.Second)
		if err != nil {
			log.Fatal(err)
		}
	}
	defer stopFed()
	fmt.Printf("fleetfed: federated endpoint at http://%s\n\n", fedAddr)

	// Sweep both shards for ten seconds of wall time so the history rings
	// and burn windows fill while the admin surfaces are live.
	for round := 0; round < 20; round++ {
		for _, s := range shards {
			s.fleet.Sweep(context.Background(), policy)
		}
		time.Sleep(500 * time.Millisecond)
	}

	fed.Poll(context.Background()) // one fresh scrape before the summary
	health := fed.Health()
	fmt.Printf("federated fleet health: %s\n", health.Status)
	for _, s := range shards {
		sum := s.tel.Health.Summary()
		fmt.Printf("  %s: %s (%d ok, %d suspect of %d devices)\n",
			s.name, sum.Status(), sum.OK, sum.Suspect, sum.Devices)
		for _, a := range s.tel.Alerts.Snapshot() {
			if a.State != telemetry.AlertInactive {
				fmt.Printf("    alert %s: %s (fast %.1fx, slow %.1fx)\n",
					a.Rule.Name, a.State, a.FastBurn, a.SlowBurn)
			}
		}
	}

	fmt.Println("\nserving all three endpoints for 45s — try pufatt-top against the federated one (ctrl-C to stop early)")
	fmt.Printf("  go run ./cmd/pufatt-top -addr http://%s\n", fedAddr)
	time.Sleep(45 * time.Second)
}
