package core

import (
	"bytes"
	"testing"

	"pufatt/internal/rng"
)

func epochTestDevice(t *testing.T) *Device {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Width = 16
	return MustNewDevice(MustNewDesign(cfg), rng.New(11), 3)
}

// sampleResponses collects noiseless responses over a few expanded
// challenges — enough surface to distinguish delay instances.
func sampleResponses(dev *Device, n int) [][]uint8 {
	out := make([][]uint8, n)
	for i := range out {
		ch := dev.Design().ExpandChallenge(uint64(i*7+1), i%2)
		out[i] = append([]uint8(nil), dev.NoiselessResponse(ch)...)
	}
	return out
}

// TestEpochZeroIsIdentity: epoch 0 is the manufacturing configuration —
// reconfiguring away and back must restore the delay instance bit-exactly
// (the audit guarantee: every epoch is reproducible forever).
func TestEpochZeroIsIdentity(t *testing.T) {
	dev := epochTestDevice(t)
	if dev.Epoch() != 0 {
		t.Fatalf("fresh device epoch = %d, want 0", dev.Epoch())
	}
	before := sampleResponses(dev, 8)
	dev.SetEpoch(3)
	dev.SetEpoch(0)
	after := sampleResponses(dev, 8)
	for i := range before {
		if !bytes.Equal(before[i], after[i]) {
			t.Fatalf("response %d changed after round-trip through epoch 3", i)
		}
	}
}

// TestEpochsAreDeterministic: the same epoch on two devices built from the
// same manufacturing seed yields identical responses — the property the
// verifier's facility twin relies on for re-enrollment.
func TestEpochsAreDeterministic(t *testing.T) {
	a := epochTestDevice(t)
	b := epochTestDevice(t)
	for _, e := range []uint32{1, 5, 1} { // revisit 1: old epochs stay reproducible
		a.SetEpoch(e)
		b.SetEpoch(e)
		ra, rb := sampleResponses(a, 6), sampleResponses(b, 6)
		for i := range ra {
			if !bytes.Equal(ra[i], rb[i]) {
				t.Fatalf("epoch %d response %d differs between identical devices", e, i)
			}
		}
	}
}

// TestEpochsChangeTheDelayInstance: reconfiguration must actually
// re-randomize — distinct epochs must disagree on a healthy fraction of
// response bits, or the fresh CRP space is an illusion.
func TestEpochsChangeTheDelayInstance(t *testing.T) {
	dev := epochTestDevice(t)
	r0 := sampleResponses(dev, 16)
	dev.SetEpoch(1)
	r1 := sampleResponses(dev, 16)
	dev.SetEpoch(2)
	r2 := sampleResponses(dev, 16)

	frac := func(a, b [][]uint8) float64 {
		diff, total := 0, 0
		for i := range a {
			for j := range a[i] {
				total++
				if a[i][j] != b[i][j] {
					diff++
				}
			}
		}
		return float64(diff) / float64(total)
	}
	if f := frac(r0, r1); f < 0.1 {
		t.Fatalf("epoch 0 vs 1 differ on %.1f%% of bits, want a re-randomized instance", f*100)
	}
	if f := frac(r1, r2); f < 0.1 {
		t.Fatalf("epoch 1 vs 2 differ on %.1f%% of bits, want a re-randomized instance", f*100)
	}
}

// TestReconfigureAdvancesEpoch: Reconfigure is SetEpoch(current+1).
func TestReconfigureAdvancesEpoch(t *testing.T) {
	dev := epochTestDevice(t)
	if e := dev.Reconfigure(); e != 1 || dev.Epoch() != 1 {
		t.Fatalf("first Reconfigure -> %d (device %d), want 1", e, dev.Epoch())
	}
	if e := dev.Reconfigure(); e != 2 {
		t.Fatalf("second Reconfigure -> %d, want 2", e)
	}
}

// TestEpochComposesWithAging: the epoch overlay and aging drift are
// independent additive Vth terms — reconfiguring must not erase
// accumulated wear, and wearing must not leak across epochs' audit
// reproducibility (a fresh device at the same epoch differs from the aged
// one).
func TestEpochComposesWithAging(t *testing.T) {
	aged := epochTestDevice(t)
	aged.SetEpoch(1)
	preAge := sampleResponses(aged, 8)
	aged.Age(20000, 1.0)
	postAge := sampleResponses(aged, 8)
	same := true
	for i := range preAge {
		if !bytes.Equal(preAge[i], postAge[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("20000h of aging changed nothing at epoch 1; overlays are not composing")
	}
	fresh := epochTestDevice(t)
	fresh.SetEpoch(1)
	freshResp := sampleResponses(fresh, 8)
	for i := range freshResp {
		if !bytes.Equal(freshResp[i], preAge[i]) {
			t.Fatalf("un-aged epoch-1 response %d is not reproducible", i)
		}
	}
}

// TestEpochEmulatorFollowsEpoch: a model exported at epoch e verifies
// epoch-e responses — the verifier-side half of reconfiguration.
func TestEpochEmulatorFollowsEpoch(t *testing.T) {
	dev := epochTestDevice(t)
	dev.SetEpoch(2)
	em := dev.Emulator()
	ch := dev.Design().ExpandChallenge(99, 1)
	want := dev.NoiselessResponse(ch)
	if got := em.Respond(ch); !bytes.Equal(got, want) {
		t.Fatal("emulator exported at epoch 2 disagrees with the device")
	}
}

// TestCriticalPathFollowsTableRebuilds: CriticalPathPs is cached per delay
// table, so every rebuild (epoch, aging, corner) must drop the cache — the
// cached value always equals a fresh device's at the same state.
func TestCriticalPathFollowsTableRebuilds(t *testing.T) {
	dev := epochTestDevice(t)
	nominal := dev.CriticalPathPs()
	dev.SetEpoch(1)
	fresh := epochTestDevice(t)
	fresh.SetEpoch(1)
	if got, want := dev.CriticalPathPs(), fresh.CriticalPathPs(); got != want || got == nominal {
		t.Fatalf("epoch 1 critical path %v, fresh device %v, epoch 0 %v", got, want, nominal)
	}
	dev.SetEpoch(0)
	if got := dev.CriticalPathPs(); got != nominal {
		t.Fatalf("back at epoch 0: critical path %v, want %v", got, nominal)
	}
	dev.Age(1000, 1)
	fresh = epochTestDevice(t)
	fresh.Age(1000, 1)
	if got, want := dev.CriticalPathPs(), fresh.CriticalPathPs(); got != want || got <= nominal {
		t.Fatalf("aged critical path %v, fresh aged device %v, unaged %v", got, want, nominal)
	}
}
