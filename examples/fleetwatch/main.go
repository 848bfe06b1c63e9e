// Fleet monitoring: the sensor-network deployment of the paper's
// introduction, watched through federated observability. An "east" and a
// "west" verifier shard each sweep their own slice of the fleet with a
// private telemetry bundle (registry, journal, health, history, alerts)
// served on their own admin endpoint; a federator scrapes both and
// re-serves the union, every device and alert labeled with its source.
//
// Every node runs the same firmware; only the silicon differs, and that
// difference is the authentication anchor. The sweep report keeps the
// failure regimes apart, and the health registry adds what a verdict
// alone cannot show:
//
//   - east-1's radio drops its first two frames: retries recover it.
//   - east-2's radio loses most frames: transport failures push it
//     DEGRADED (an availability problem, not a security one).
//   - east-3's radio is dead: UNREACHABLE (no verdict), and after three
//     sweeps the circuit breaker QUARANTINES it so it cannot drain the
//     sweep's retry budget.
//   - west-1's firmware is patched: COMPROMISED (the verifier completed a
//     session and rejected it), then OK again once it is restored.
//   - west-2 answers through a link that adds 30 ms to every round trip.
//     Every verdict is still ACCEPTED (the delay stays inside δ), but its
//     p95 round trip breaks the timing SLO: the node turns SUSPECT and the
//     west shard's RTT burn alert fires. In the paper's threat model that
//     inflation is exactly what a relayed or overclocked prover looks like.
//
// Every failing session also leaves a flight-recorder dump: a JSON-lines
// snapshot of the protocol-event journal tagged with the session's trace
// ID. Run it, then explore while it serves:
//
//	curl http://localhost:7793/healthz   # merged fleet health (503 = suspect)
//	curl http://localhost:7793/devices   # per-device health + "source" label
//	curl http://localhost:7793/alerts    # burn-rate alerts across shards
//	curl http://localhost:7791/debug/traces  # east's stitched span trees
//	go run ./cmd/pufatt-top -addr http://localhost:7793
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pufatt"
	"pufatt/internal/attest"
	"pufatt/internal/telemetry"
)

// shard is one verifier deployment with a private telemetry bundle.
type shard struct {
	name  string
	tel   *pufatt.AttestTelemetry
	fleet *pufatt.Fleet
	nodes []*pufatt.System
}

// newShard enrolls one NewSystem per radio (nil is a clean link) as nodes
// 0, 1, ... of the shard, manufactured as chips baseChip, baseChip+1, ...
func newShard(name string, baseChip int, flightDir string, radios []*pufatt.FaultPlan) *shard {
	firmware := make([]uint32, 400)
	for i := range firmware {
		firmware[i] = pufatt.Mix32(uint32(i) ^ 0xf1ee7)
	}
	s := &shard{
		name:  name,
		tel:   attest.NewTelemetry(telemetry.NewRegistry(), telemetry.NewTracer(256)),
		fleet: pufatt.NewFleet(),
	}
	s.tel.SetFlightDir(filepath.Join(flightDir, name))
	s.fleet.Telemetry = s.tel
	for i, plan := range radios {
		sys, err := pufatt.NewSystem(pufatt.Options{
			Attest:  pufatt.AttestParams{MemWords: 1024, Chunks: 8, BlocksPerChunk: 8},
			Payload: firmware,
			Seed:    2000,
			ChipID:  baseChip + i,
		})
		if err != nil {
			log.Fatal(err)
		}
		sys.Verifier.Device = fmt.Sprintf("%s-%d", name, i)
		var agent pufatt.ProverAgent = sys.Prover
		if plan != nil {
			agent = pufatt.NewFaultyLink(sys.Prover, *plan, uint64(baseChip+i))
		}
		if err := s.fleet.Enroll(i, sys.Verifier, agent, pufatt.DefaultLink()); err != nil {
			log.Fatal(err)
		}
		s.nodes = append(s.nodes, sys)
	}
	return s
}

// sweep attests every node of the shard once and prints each verdict.
func (s *shard) sweep(policy pufatt.RetryPolicy) pufatt.SweepReport {
	report := s.fleet.Sweep(context.Background(), policy)
	for _, r := range report.Results {
		status := "OK"
		switch {
		case r.Compromised():
			status = "COMPROMISED"
		case r.Attempts == 0:
			status = "QUARANTINED"
		case r.Unreachable():
			status = "UNREACHABLE"
		}
		fmt.Printf("  %s-%d: %-11s (%d attempt(s), %.1f ms)\n",
			s.name, r.NodeID, status, r.Attempts, r.Result.Elapsed*1e3)
	}
	return report
}

// patch flips 48 payload words of a node's firmware; a second call
// restores them.
func patch(sys *pufatt.System) {
	for i := 0; i < 48; i++ {
		sys.Prover.Image.Mem[sys.Image.Layout.PayloadAddr+40+i] ^= 0xA5A5
	}
}

// fetch GETs one route of an admin surface and decodes its JSON body.
func fetch(url string, v any) int {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
	return resp.StatusCode
}

func main() {
	flightDir := filepath.Join(os.TempDir(), "pufatt-fleetwatch")
	east := newShard("east", 0, flightDir, []*pufatt.FaultPlan{
		nil,
		{Drop: 1, MaxFaults: 2}, // flaky: two dropped frames, then clean
		{Drop: 0.7},             // lossy: most frames dropped, transiently
		{Drop: 1},               // dead: drops everything, forever
	})
	west := newShard("west", 100, flightDir, []*pufatt.FaultPlan{
		nil,
		nil,                               // firmware patched below
		{Jitter: 1, JitterSeconds: 0.030}, // genuine answers, 30 ms late
	})
	shards := []*shard{east, west}
	policy := pufatt.RetryPolicy{MaxAttempts: 3} // per node; quarantined nodes get one probe

	// Each shard serves its own admin surface and samples its history
	// twice a second; the federator scrapes both and re-serves the union.
	ports := []string{"localhost:7791", "localhost:7792"}
	var sources []pufatt.ScrapeSource
	for i, s := range shards {
		addr, stop, err := pufatt.StartAdmin(ports[i], s.tel)
		if err != nil {
			// Port taken (another fleetwatch?): fall back to an ephemeral one.
			if addr, stop, err = pufatt.StartAdmin("localhost:0", s.tel); err != nil {
				log.Fatal(err)
			}
		}
		defer stop()
		s.tel.History.SetWindow(500 * time.Millisecond)
		defer s.tel.StartObservability(500 * time.Millisecond)()
		sources = append(sources, pufatt.ScrapeSource{Name: s.name, BaseURL: "http://" + addr})
		fmt.Printf("fleetwatch: %s shard admin at http://%s\n", s.name, addr)
	}
	fed, err := pufatt.NewFleetFederator(sources)
	if err != nil {
		log.Fatal(err)
	}
	fed.SetStaleAfter(5 * time.Second)
	fedAddr, stopFed, err := pufatt.StartFederation("localhost:7793", fed, time.Second)
	if err != nil {
		if fedAddr, stopFed, err = pufatt.StartFederation("localhost:0", fed, time.Second); err != nil {
			log.Fatal(err)
		}
	}
	defer stopFed()
	fedURL := "http://" + fedAddr
	fmt.Printf("fleetwatch: federated endpoint at %s, flight dumps in %s\n", fedURL, flightDir)

	// Sweep 1 calibrates: the slowest honest round trip of the east shard
	// (no node there inflates its timing) plus a guard band sets both
	// shards' timing SLO. The guard must dominate histogram-bucket
	// quantization: the health registry interpolates p95 within a bucket,
	// so honest traffic at ~13 ms reports p95 ≈ 24 ms. 15 ms keeps the
	// honest fleet green while west-2's extra 30 ms lands far out.
	sweep := func(tag string) pufatt.SweepReport {
		fmt.Printf("\nsweep (%s):\n", tag)
		report := east.sweep(policy)
		west.sweep(policy)
		return report
	}
	var calib float64
	for _, r := range sweep("calibration; east-1 recovers via retries").Results {
		if r.Err == nil && r.Result.Elapsed > calib {
			calib = r.Result.Elapsed
		}
	}
	for _, s := range shards {
		slo := s.tel.Health.SLO()
		slo.MaxRTTP95 = calib + 0.015
		slo.MaxTransportRate = 0.3 // a radio losing >30% of its sessions is degraded
		slo.MinSessions = 4
		s.tel.SetSLO(slo)
		// Demo-speed burn windows: the default 1 min / 5 min windows would
		// keep this example running for minutes before the slow one fills.
		rules := s.tel.Alerts.Rules()
		for i := range rules {
			rules[i].FastWindow = 2 * time.Second
			rules[i].SlowWindow = 8 * time.Second
		}
		s.tel.Alerts.SetRules(rules)
	}
	fmt.Printf("timing SLO: p95 RTT ≤ %.4fs (slowest honest RTT %.4fs + 15ms)\n", calib+0.015, calib)

	patch(west.nodes[1])
	sweep("west-1 firmware patched by an attacker")
	patch(west.nodes[1])
	sweep("west-1 firmware restored")
	sweep("east-3 unreachable three sweeps running")

	// Twenty quiet sweeps over ten seconds of wall time, so the history
	// rings and burn windows fill while the admin surfaces are live.
	for round := 0; round < 20; round++ {
		for _, s := range shards {
			s.fleet.Sweep(context.Background(), policy)
		}
		time.Sleep(500 * time.Millisecond)
	}

	// The federated view: one fresh scrape, then the merged surfaces.
	fed.Poll(context.Background())
	var health struct{ Status string }
	code := fetch(fedURL+"/healthz", &health)
	fmt.Printf("\nfederated /healthz: HTTP %d, fleet %s\n", code, health.Status)
	var devices []struct {
		Source, Device, Status string
		Sessions, Rejected     uint64
		Transport              uint64 `json:"transport_failures"`
		Reasons                []string
	}
	fetch(fedURL+"/devices", &devices)
	fmt.Println("federated /devices:")
	for _, d := range devices {
		fmt.Printf("  %-4s %-7s %-9s sessions=%-3d rejected=%d transport=%-3d %v\n",
			d.Source, d.Device, d.Status, d.Sessions, d.Rejected, d.Transport, d.Reasons)
	}
	var alerts []struct {
		Source, Name, State string
		FastBurn            float64 `json:"fast_burn"`
		SlowBurn            float64 `json:"slow_burn"`
	}
	fetch(fedURL+"/alerts", &alerts)
	fmt.Println("federated /alerts:")
	for _, a := range alerts {
		if a.State != telemetry.AlertInactive.String() {
			fmt.Printf("  %-4s %s: %s (fast %.1fx, slow %.1fx)\n", a.Source, a.Name, a.State, a.FastBurn, a.SlowBurn)
		}
	}
	dumps, _ := filepath.Glob(filepath.Join(flightDir, "*", "flight-*.jsonl"))
	fmt.Printf("flight dumps: %d (each header carries the failing session's trace ID)\n", len(dumps))
	fmt.Println("\nserving all three endpoints for 30s — curl them now (ctrl-C to stop early)")
	time.Sleep(30 * time.Second)
}
