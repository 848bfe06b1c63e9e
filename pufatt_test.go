package pufatt

import (
	"testing"

	"pufatt/internal/attest"
)

func smallOptions() Options {
	cfg := DefaultConfig()
	cfg.Width = 32
	return Options{
		PUF:     cfg,
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
	for i := 0; i < 2; i++ {
		res, err := s.Attest(Link{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("attestation %d rejected: %s", i, res.Reason)
		}
	}
}

// TestNewSystemSharesDesignPerConfig: systems built from one PUF
// configuration share its read-only design; another configuration gets its
// own, and the sharing changes no device behaviour.
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
		t.Error("two systems of one configuration compiled two designs")
	}
	opt.PUF.Width = 16
	c, err := NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	if c.Design == a.Design || c.Design.ResponseBits() != 16 {
		t.Error("a 16-bit configuration reused the 32-bit design")
	}
	opt.PUF.Width = 32
	fresh, err := NewDesign(opt.PUF)
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

func TestSystemWithCRPDatabase(t *testing.T) {
	opt := smallOptions()
	opt.UseCRPDatabase = 3
	s, err := NewSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.DB == nil || s.DB.Len() != 3 {
		t.Fatal("database not enrolled")
	}
	for i := 0; i < 3; i++ {
		res, err := s.Attest(Link{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("honest session %d rejected: %s", i+1, res.Reason)
		}
	}
	// Budget exhausted: the fourth authentication must fail as exhausted.
	if _, err := s.Attest(Link{}); !attest.IsExhausted(err) {
		t.Errorf("fourth session past a 3-seed database: err = %v, want exhausted", err)
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
	if len(z) != 32 {
		t.Fatalf("z has %d bits", len(z))
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
	if s.Image.Layout.Params.MemWords != DefaultAttestParams().MemWords {
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

func TestZWord(t *testing.T) {
	if ZWord([]uint8{1, 1, 0, 1}) != 0b1011 {
		t.Errorf("ZWord = %#b", ZWord([]uint8{1, 1, 0, 1}))
	}
}

func TestPipelineRoundTripThroughFacade(t *testing.T) {
	d, _ := NewDesign(DefaultConfig())
	dev, _ := NewDevice(d, 9, 0)
	pl, err := NewPipeline(dev)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pl.Query(42)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := NewVerifierPipeline(dev.Emulator())
	if err != nil {
		t.Fatal(err)
	}
	z, err := vp.Recover(42, out.Helpers)
	if err != nil {
		t.Fatal(err)
	}
	if z != ZWord(out.Z) {
		t.Error("facade round trip mismatch")
	}
}

func TestEnrollCRPsFacade(t *testing.T) {
	d, _ := NewDesign(DefaultConfig())
	dev, _ := NewDevice(d, 11, 0)
	db, err := EnrollCRPs(dev, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if db.Remaining() != 3 {
		t.Errorf("Remaining = %d", db.Remaining())
	}
}
