package pufatt

import (
	"testing"

	"pufatt/internal/attest"
	"pufatt/internal/swatt"
)

func smallOptions() Options {
	return Options{
		Attest:  AttestParams{MemWords: 1024, Chunks: 4, BlocksPerChunk: 2},
		Payload: []uint32{0xC0FFEE, 0xF00D, 0xBEEF},
		Seed:    1,
	}
}

func TestNewSystemAndAttest(t *testing.T) {
	s, err := NewSystem(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	link := DefaultLink()
	s.Verifier.AllowNetwork(link)
	for i := 0; i < 2; i++ {
		res, err := attest.RunSession(s.Verifier, s.Prover, link)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("attestation %d rejected: %s", i, res.Reason)
		}
	}
}

// TestNewSystemSharesDesignPerConfig: systems share one read-only design,
// and the sharing changes no device behaviour.
func TestNewSystemSharesDesignPerConfig(t *testing.T) {
	opt := smallOptions()
	a, err := NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.ChipID = 1
	b, err := NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Design != b.Design {
		t.Error("two systems compiled two designs")
	}
	fresh, err := NewDesign(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ch := fresh.ExpandChallenge(5, 0)
	dev, err := NewDevice(fresh, opt.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := dev.NoiselessResponse(ch)
	if got := b.Device.NoiselessResponse(ch); string(got) != string(want) {
		t.Errorf("shared-design device responds %v, fresh-design device %v", got, want)
	}
}

func TestSystemQueryPUF(t *testing.T) {
	s, err := NewSystem(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	z, verified, err := s.QueryPUF(12345)
	if err != nil {
		t.Fatal(err)
	}
	if z>>32 != 0 {
		t.Fatalf("z = %#x has a bit at or above 32", z)
	}
	if !verified {
		t.Error("standalone PUF query failed verification")
	}
}

func TestSystemDefaultsApplied(t *testing.T) {
	// Zero options must resolve to the calibrated defaults. The default
	// attestation image is larger, so just construct it.
	s, err := NewSystem(Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Design.Config().Width != 32 {
		t.Errorf("default width %d", s.Design.Config().Width)
	}
	if s.Image.Layout.Params.MemWords != swatt.DefaultParams().MemWords {
		t.Error("default attestation params not applied")
	}
	if s.Prover.FreqHz <= 0 {
		t.Error("prover clock not tuned")
	}
}

func TestNewDeviceDeterministic(t *testing.T) {
	d, err := NewDesign(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewDevice(d, 7, 0)
	b, _ := NewDevice(d, 7, 0)
	ch := d.ExpandChallenge(1, 0)
	ra := a.NoiselessResponse(ch)
	rb := b.NoiselessResponse(ch)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("same seed/chip produced different devices")
		}
	}
}

func TestMix32Exported(t *testing.T) {
	if Mix32(0) == 0 && Mix32(1) == 1 {
		t.Error("Mix32 looks like identity")
	}
}
