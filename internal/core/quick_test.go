package core

import (
	"testing"
	"testing/quick"

	"pufatt/internal/rng"
)

// Property-based tests of the core invariants (testing/quick).

func TestPropEmulatorAlwaysMatchesDevice(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(200), 0)
	em := dev.Emulator()
	f := func(a, b uint16) bool {
		ch := d.ChallengeFromOperands(uint64(a), uint64(b))
		want := dev.NoiselessResponse(ch)
		got := em.Respond(ch)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropChallengeLayoutRoundTrip(t *testing.T) {
	d := MustNewDesign(testConfig())
	f := func(a, b uint16) bool {
		ch := d.ChallengeFromOperands(uint64(a), uint64(b))
		var ra, rb uint64
		for i := 0; i < 16; i++ {
			ra |= uint64(ch[i]) << uint(i)
			rb |= uint64(ch[16+i]) << uint(i)
		}
		return ra == uint64(a) && rb == uint64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropExpandOperandsUses32Bits(t *testing.T) {
	d := MustNewDesign(testConfig())
	f := func(seed uint64, j uint8) bool {
		jj := int(j % 8)
		a1, b1 := d.ExpandOperands(seed, jj)
		a2, b2 := d.ExpandOperands(seed&0xffffffff, jj)
		return a1 == a2 && b1 == b2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropExpandChallengeConsistentWithOperands(t *testing.T) {
	d := MustNewDesign(testConfig())
	f := func(seed uint32, j uint8) bool {
		jj := int(j % 8)
		a, b := d.ExpandOperands(uint64(seed), jj)
		ch := d.ExpandChallenge(uint64(seed), jj)
		want := d.ChallengeFromOperands(uint64(a), uint64(b))
		for i := range want {
			if ch[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropClockedResponseAllValidAtGenerousClock(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(201), 0)
	slack := dev.CriticalPathPs() * 10
	f := func(a, b uint16) bool {
		ch := d.ChallengeFromOperands(uint64(a), uint64(b))
		_, valid := dev.ClockedResponse(ch, slack, 20)
		return valid == d.ResponseBits()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropArrivalDeltasFinite(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(202), 0)
	f := func(a, b uint16) bool {
		for _, dl := range dev.ArrivalDeltas(d.ChallengeFromOperands(uint64(a), uint64(b))) {
			if dl != dl || dl > 1e6 || dl < -1e6 { // NaN or absurd
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropPipelineHelpersAlwaysRecoverable(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(203), 0)
	pl := MustNewPipeline(dev)
	vp := MustNewVerifierPipeline(dev.Emulator())
	mismatches := 0
	f := func(seed uint32) bool {
		out, err := pl.Query(uint64(seed))
		if err != nil {
			return false
		}
		z, err := vp.Recover(uint64(seed), out.Helpers)
		if err != nil {
			return false
		}
		if z != out.ZWord() {
			mismatches++ // rare 16-bit RM(1,4) misrecoveries allowed below
			return mismatches <= 2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
