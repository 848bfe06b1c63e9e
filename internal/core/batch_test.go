package core

import (
	"bytes"
	"runtime"
	"testing"

	"pufatt/internal/delay"
	"pufatt/internal/rng"
	"pufatt/internal/stats"
)

// twinDevice manufactures a fresh but physically identical copy of the test
// device (same master seed, same chip ID), so worker-count comparisons start
// from identical noise-epoch state.
func twinDevice(t testing.TB, seed uint64) *Device {
	t.Helper()
	return MustNewDevice(MustNewDesign(testConfig()), rng.New(seed), 0)
}

func batchChallenges(d *Design, n int, seed uint64) [][]uint8 {
	src := rng.New(seed)
	m := ChallengeMatrix(d, n)
	for k := range m {
		d.ExpandChallengeInto(m[k], src.Uint64(), 0)
	}
	return m
}

// TestParallelDeterminismBatch is the core determinism guarantee: the batch
// result matrix is byte-identical at workers=1, workers=4, and
// workers=GOMAXPROCS, for all three evaluation modes.
func TestParallelDeterminismBatch(t *testing.T) {
	counts := []int{1, 4, 0} // 0 = GOMAXPROCS
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		counts = append(counts, g)
	}
	type mode struct {
		name string
		eval func(dev *Device, ch [][]uint8, workers int) [][]uint8
	}
	modes := []mode{
		{"raw", func(dev *Device, ch [][]uint8, w int) [][]uint8 { return dev.RawResponses(ch, w) }},
		{"noiseless", func(dev *Device, ch [][]uint8, w int) [][]uint8 { return dev.NoiselessResponses(ch, w) }},
		{"majority5", func(dev *Device, ch [][]uint8, w int) [][]uint8 { return dev.MajorityResponses(ch, 5, w) }},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			var ref [][]uint8
			for i, w := range counts {
				dev := twinDevice(t, 101)
				ch := batchChallenges(dev.Design(), 300, 102)
				got := m.eval(dev, ch, w)
				if i == 0 {
					ref = got
					continue
				}
				for k := range ref {
					if !bytes.Equal(ref[k], got[k]) {
						t.Fatalf("workers=%d row %d differs from workers=%d:\n%v\n%v",
							w, k, counts[0], got[k], ref[k])
					}
				}
			}
		})
	}
}

// Consecutive batches on one device must draw fresh noise (the epoch
// counter), or every batch would repeat the same "random" measurement.
func TestBatchEpochsAdvanceNoise(t *testing.T) {
	dev := twinDevice(t, 103)
	ch := batchChallenges(dev.Design(), 200, 104)
	a := dev.RawResponses(ch, 2)
	b := dev.RawResponses(ch, 2)
	var hd stats.Summary
	for k := range a {
		hd.Add(float64(stats.HammingDistance(a[k], b[k])))
	}
	frac := hd.Mean() / float64(dev.Design().ResponseBits())
	if frac < 0.01 || frac > 0.3 {
		t.Errorf("repeat-batch noise fraction %v outside the plausible band (epoch not advancing?)", frac)
	}
}

// The batch path must agree with the sequential path on everything
// deterministic: noiseless responses are the same physics, so they must be
// bit-identical to Device.NoiselessResponse.
func TestBatchNoiselessMatchesSequential(t *testing.T) {
	dev := twinDevice(t, 105)
	ch := batchChallenges(dev.Design(), 100, 106)
	batch := dev.NoiselessResponses(ch, 3)
	for k := range ch {
		want := dev.NoiselessResponse(ch[k])
		if !bytes.Equal(batch[k], want) {
			t.Fatalf("row %d: batch noiseless %v, sequential %v", k, batch[k], want)
		}
	}
}

// Batch noise must be statistically equivalent to sequential noise: the
// intra-chip error rate measured through the batch path should sit in the
// same band the sequential TestRawResponseIsNoisy pins.
func TestBatchRawNoiseRateMatchesSequential(t *testing.T) {
	dev := twinDevice(t, 107)
	ch := batchChallenges(dev.Design(), 400, 108)
	noiseless := dev.NoiselessResponses(ch, 2)
	raw := dev.RawResponses(ch, 2)
	var hd stats.Summary
	for k := range ch {
		hd.Add(float64(stats.HammingDistance(noiseless[k], raw[k])))
	}
	frac := hd.Mean() / float64(dev.Design().ResponseBits())
	if frac < 0.02 || frac > 0.3 {
		t.Errorf("batch intra-chip noise fraction %v outside the plausible band", frac)
	}
}

// Majority voting through the batch path must reduce the error rate, same
// as the sequential MajorityResponse.
func TestBatchMajorityReducesNoise(t *testing.T) {
	dev := twinDevice(t, 109)
	ch := batchChallenges(dev.Design(), 400, 110)
	noiseless := dev.NoiselessResponses(ch, 2)
	raw := dev.RawResponses(ch, 2)
	voted := dev.MajorityResponses(ch, 5, 2)
	var rawHD, votedHD stats.Summary
	for k := range ch {
		rawHD.Add(float64(stats.HammingDistance(noiseless[k], raw[k])))
		votedHD.Add(float64(stats.HammingDistance(noiseless[k], voted[k])))
	}
	if votedHD.Mean() >= rawHD.Mean() {
		t.Errorf("5-vote majority error %.3f not below raw %.3f", votedHD.Mean(), rawHD.Mean())
	}
}

// The batch honours the current operating corner and per-device extra skew,
// like the sequential path.
func TestBatchRespectsCornerAndSkew(t *testing.T) {
	for _, engine := range []string{"gate", "bitslice"} {
		t.Run(engine, func(t *testing.T) {
			dev := twinDevice(t, 111)
			dev.batcher().scalar = engine == "gate"
			ch := batchChallenges(dev.Design(), 50, 112)
			nominal := dev.NoiselessResponses(ch, 2)
			// The second batch reuses the evaluator's worker engines, which
			// must pick up the corner's delay table.
			dev.SetConditions(delay.Conditions{VddScale: 0.90, TempC: 120})
			corner := dev.NoiselessResponses(ch, 2)
			for k := range ch {
				want := dev.NoiselessResponse(ch[k])
				if !bytes.Equal(corner[k], want) {
					t.Fatalf("corner row %d: batch %v, sequential %v", k, corner[k], want)
				}
			}
			changed := 0
			for k := range ch {
				changed += stats.HammingDistance(nominal[k], corner[k])
			}
			if changed == 0 {
				t.Log("corner shift flipped no bits in this sample (allowed, but unusual)")
			}
		})
	}
}

// Reused dst matrices must be filled in place without reallocation.
func TestBatchReusesDst(t *testing.T) {
	dev := twinDevice(t, 113)
	be := NewBatchEvaluator(dev)
	ch := batchChallenges(dev.Design(), 64, 114)
	dst := be.ResponseMatrix(64)
	p0 := &dst[0][0]
	out := be.RawResponses(ch, dst, 2)
	if &out[0][0] != p0 {
		t.Fatal("batch reallocated the caller's dst matrix")
	}
}

func TestBatchQueryAccounting(t *testing.T) {
	dev := twinDevice(t, 115)
	before := dev.Queries()
	ch := batchChallenges(dev.Design(), 30, 116)
	dev.RawResponses(ch, 2)
	dev.MajorityResponses(ch, 5, 2)
	if got, want := dev.Queries()-before, uint64(30+30*5); got != want {
		t.Errorf("queries advanced by %d, want %d", got, want)
	}
}

func TestBatchRejectsBadChallenge(t *testing.T) {
	dev := twinDevice(t, 117)
	defer func() {
		if recover() == nil {
			t.Fatal("short challenge accepted")
		}
	}()
	dev.RawResponses([][]uint8{make([]uint8, 3)}, 1)
}

func TestBatchEmpty(t *testing.T) {
	dev := twinDevice(t, 118)
	if got := dev.RawResponses(nil, 4); len(got) != 0 {
		t.Fatalf("empty batch returned %d rows", len(got))
	}
}

// TestRawResponseAliasingContract pins the documented ownership rule of the
// sequential API: RawResponse returns device-owned scratch invalidated by
// the next call, while RawResponseCopy and batch rows are caller-owned.
func TestRawResponseAliasingContract(t *testing.T) {
	dev := twinDevice(t, 119)
	d := dev.Design()
	ch1 := d.ExpandChallenge(1, 0)
	ch2 := d.ExpandChallenge(2, 0)
	r1 := dev.RawResponse(ch1)
	r2 := dev.RawResponse(ch2)
	if &r1[0] != &r2[0] {
		t.Fatal("RawResponse returned fresh storage; the documented device-owned buffer contract changed")
	}
	cp := dev.RawResponseCopy(ch1)
	dev.RawResponse(ch2)
	cp2 := dev.RawResponseCopy(ch1)
	if &cp[0] == &cp2[0] {
		t.Fatal("RawResponseCopy returned shared storage")
	}
	// Batch rows must be independent storage from the device scratch and
	// from each other.
	rows := dev.RawResponses(batchChallenges(d, 2, 120), 1)
	if &rows[0][0] == &dev.respBuf[0] || &rows[1][0] == &dev.respBuf[0] {
		t.Fatal("batch rows alias the device scratch buffer")
	}
}

// TestReferenceResponseAliasingContract: Emulator.ReferenceResponse
// returns emulator-owned scratch that the next lookup overwrites, holding
// the response Respond gives for the seed's j-th expansion; Respond returns
// fresh storage.
func TestReferenceResponseAliasingContract(t *testing.T) {
	dev := twinDevice(t, 121)
	d := dev.Design()
	em := dev.Emulator()
	r1, _ := em.ReferenceResponse(1, 0)
	want1 := em.Respond(d.ExpandChallenge(1, 0))
	if !bytes.Equal(r1, want1) {
		t.Fatalf("ReferenceResponse(1, 0) = %v, Respond %v", r1, want1)
	}
	r2, _ := em.ReferenceResponse(2, 3)
	if &r1[0] != &r2[0] {
		t.Fatal("ReferenceResponse returned fresh storage; the documented emulator-owned buffer contract changed")
	}
	want2 := em.Respond(d.ExpandChallenge(2, 3))
	if bytes.Equal(want1, want2) {
		t.Fatal("test challenges give equal responses; pick others")
	}
	if !bytes.Equal(r1, want2) {
		t.Fatal("the first result was not overwritten in place by the second lookup")
	}
	if &want1[0] == &want2[0] || &want1[0] == &r1[0] {
		t.Fatal("Respond returned shared storage")
	}
}
