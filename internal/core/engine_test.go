package core

import (
	"bytes"
	"testing"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
	"pufatt/internal/rng"
)

// engineScenario prepares one device state the bitsliced engine must
// reproduce exactly: architecture variants and every physics mutation that
// reaches the delay tables or the arbiter deltas.
type engineScenario struct {
	name string
	cfg  func() Config
	prep func(dev *Device)
}

func engineScenarios() []engineScenario {
	return []engineScenario{
		{"rca-fused", testConfig, nil},
		{"rca-no-carry", func() Config {
			cfg := testConfig()
			cfg.UseCarry = false
			return cfg
		}, nil},
		{"cla-generic", func() Config {
			cfg := testConfig()
			cfg.Adder = netlist.AdderCLA
			return cfg
		}, nil},
		{"corner-and-skew", testConfig, func(dev *Device) {
			dev.SetConditions(delay.Conditions{VddScale: 0.90, TempC: 120})
			skew := make([]float64, dev.Design().ResponseBits())
			for i := range skew {
				skew[i] = float64(i%5) - 2
			}
			dev.SetExtraSkewPs(skew)
		}},
		{"epoch-3", testConfig, func(dev *Device) { dev.SetEpoch(3) }},
		{"aged", testConfig, func(dev *Device) { dev.Age(5000, 0.5) }},
	}
}

// TestBitsliceMatchesGateAllModes is the cross-engine equivalence contract:
// for every device state and worker count, the bitsliced engine's raw,
// noiseless and majority-voted response matrices are byte-identical to the
// scalar gate-level engine's. Twin devices share seed and chip ID, and both
// run the modes in the same order, so their batch noise epochs stay aligned.
func TestBitsliceMatchesGateAllModes(t *testing.T) {
	workerCounts := []int{1, 4, 16}
	for _, sc := range engineScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for _, workers := range workerCounts {
				mk := func(scalar bool) *Device {
					dev := MustNewDevice(MustNewDesign(sc.cfg()), rng.New(303), 0)
					if sc.prep != nil {
						sc.prep(dev)
					}
					dev.batcher().scalar = scalar
					return dev
				}
				gate := mk(true)
				sliced := mk(false)
				// 130 challenges: two full 64-lane blocks plus a short tail
				// block, so tail-lane masking is always exercised.
				ch := batchChallenges(gate.Design(), 130, 304)
				run := func(dev *Device) [][][]uint8 {
					return [][][]uint8{
						dev.RawResponses(ch, workers),
						dev.NoiselessResponses(ch, workers),
						dev.MajorityResponses(ch, 5, workers),
					}
				}
				want, got := run(gate), run(sliced)
				modes := []string{"raw", "noiseless", "majority5"}
				for m := range want {
					for k := range want[m] {
						if !bytes.Equal(want[m][k], got[m][k]) {
							t.Fatalf("%s workers=%d row %d: bitslice %v, gate %v",
								modes[m], workers, k, got[m][k], want[m][k])
						}
					}
				}
			}
		})
	}
}

// TestBitsliceDeterministicAcrossWorkers pins the worker-count determinism
// contract on the bitsliced path specifically: identical output matrices at
// 1, 4 and 16 workers (16 > blocks forces the worker clamp).
func TestBitsliceDeterministicAcrossWorkers(t *testing.T) {
	var ref [][]uint8
	for i, workers := range []int{1, 4, 16} {
		dev := twinDevice(t, 305)
		ch := batchChallenges(dev.Design(), 200, 306)
		got := dev.RawResponses(ch, workers)
		if i == 0 {
			ref = got
			continue
		}
		for k := range ref {
			if !bytes.Equal(ref[k], got[k]) {
				t.Fatalf("workers=%d row %d differs: %v vs %v", workers, k, got[k], ref[k])
			}
		}
	}
}
