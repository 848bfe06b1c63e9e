package attest

import (
	"context"
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

func buildFleet(t *testing.T, nodes int) (*Fleet, []*Prover, *swatt.Image) {
	t.Helper()
	design := core.MustNewDesign(core.DefaultConfig())
	params := swatt.Params{MemWords: 1024, Chunks: 4, BlocksPerChunk: 2, PRG: swatt.PRGMix32}
	image, err := swatt.BuildImage(params, []uint32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewFleet()
	var provers []*Prover
	link := DefaultLink()
	for id := 0; id < nodes; id++ {
		dev := core.MustNewDevice(design, rng.New(500), id)
		prover, v, err := NewPair(dev, image)
		if err != nil {
			t.Fatal(err)
		}
		v.AllowNetwork(link)
		if err := fleet.Enroll(id, v, prover, link); err != nil {
			t.Fatal(err)
		}
		provers = append(provers, prover)
	}
	return fleet, provers, image
}

func TestFleetSweepAllHealthy(t *testing.T) {
	fleet, _, _ := buildFleet(t, 3)
	if fleet.Size() != 3 {
		t.Fatalf("size = %d", fleet.Size())
	}
	report := fleet.Sweep(context.Background(), RetryPolicy{MaxAttempts: 3})
	results := report.Results
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	for _, r := range results {
		if !r.Healthy() {
			t.Errorf("node %d unhealthy: %v %s", r.NodeID, r.Err, r.Result.Reason)
		}
	}
	if bad := report.Compromised; bad != nil {
		t.Errorf("compromised = %v, want none", bad)
	}
}

func TestFleetSweepPinpointsCompromise(t *testing.T) {
	fleet, provers, image := buildFleet(t, 3)
	// Flip a 400-word region: the 64-round traversal samples it except
	// with probability (1-400/1024)^64 ≈ 4e-15, so the test is stable
	// under the protocol's random nonces.
	for i := 0; i < 400; i++ {
		provers[1].Image.Mem[image.Layout.PayloadAddr+i] ^= 0xAA
	}
	report := fleet.Sweep(context.Background(), RetryPolicy{MaxAttempts: 3})
	results := report.Results
	bad := report.Compromised
	if len(bad) != 1 || bad[0] != 1 {
		t.Errorf("compromised = %v, want [1]", bad)
	}
	// Results come back in node-id order.
	for i, r := range results {
		if r.NodeID != i {
			t.Errorf("result %d has node id %d", i, r.NodeID)
		}
	}
}

func TestFleetEnrollRejectsDuplicates(t *testing.T) {
	fleet, _, _ := buildFleet(t, 1)
	if err := fleet.Enroll(0, nil, nil, Link{}); err == nil {
		t.Error("duplicate enrollment accepted")
	}
}
