package core

import (
	"math"
	"slices"
	"testing"

	"pufatt/internal/delay"
	"pufatt/internal/rng"
	"pufatt/internal/stats"
	"pufatt/internal/telemetry"
)

// testConfig returns a small, fast design for unit tests (the calibrated
// 32-bit DefaultConfig is exercised by the experiment tests and benches).
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Width = 16
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Width: 1},
		{Width: 65},
		{Width: 16, JitterPs: -1},
		{Width: 16, LayoutSkewPs: -1},
	}
	for i, cfg := range bad {
		if _, err := NewDesign(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDesignDefaults(t *testing.T) {
	d := MustNewDesign(Config{Width: 16})
	cfg := d.Config()
	if cfg.Tech == (delay.Params{}) {
		t.Error("technology defaults not applied")
	}
	if cfg.Variation.SigmaTotal == 0 {
		t.Error("variation defaults not applied")
	}
	if d.ResponseBits() != 16 || d.ChallengeBits() != 32 {
		t.Errorf("widths: resp %d chal %d", d.ResponseBits(), d.ChallengeBits())
	}
}

func TestDesignSkewDeterministicPerSeed(t *testing.T) {
	a := MustNewDesign(testConfig()).SkewPs()
	b := MustNewDesign(testConfig()).SkewPs()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same design seed produced different skew")
		}
	}
	cfg := testConfig()
	cfg.DesignSeed++
	c := MustNewDesign(cfg).SkewPs()
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different design seeds produced identical skew")
	}
}

func TestExpandChallengeProperties(t *testing.T) {
	d := MustNewDesign(testConfig())
	c0 := d.ExpandChallenge(42, 0)
	if len(c0) != 32 {
		t.Fatalf("challenge length %d", len(c0))
	}
	same := d.ExpandChallenge(42, 0)
	for i := range c0 {
		if c0[i] != same[i] {
			t.Fatal("expansion not deterministic")
		}
	}
	c1 := d.ExpandChallenge(42, 1)
	other := d.ExpandChallenge(43, 0)
	if stats.HammingDistance(c0, c1) == 0 || stats.HammingDistance(c0, other) == 0 {
		t.Error("expansion does not separate indices/seeds")
	}
}

func TestChallengeFromOperands(t *testing.T) {
	d := MustNewDesign(testConfig())
	ch := d.ChallengeFromOperands(0x8001, 0x0003)
	if ch[0] != 1 || ch[15] != 1 || ch[1] != 0 {
		t.Error("operand A bits misplaced")
	}
	if ch[16] != 1 || ch[17] != 1 || ch[18] != 0 {
		t.Error("operand B bits misplaced")
	}
}

func TestDeviceManufacturingDeterminism(t *testing.T) {
	d := MustNewDesign(testConfig())
	devA := MustNewDevice(d, rng.New(5), 7)
	devB := MustNewDevice(d, rng.New(5), 7)
	ch := d.ExpandChallenge(1, 0)
	a := devA.NoiselessResponse(ch)
	b := devB.NoiselessResponse(ch)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical chips gave different noiseless responses")
		}
	}
}

func TestNoiselessResponseIsStable(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	ch := d.ExpandChallenge(9, 0)
	a := dev.NoiselessResponse(ch)
	for k := 0; k < 10; k++ {
		b := dev.NoiselessResponse(ch)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("noiseless response changed between calls")
			}
		}
	}
}

func TestRawResponseIsNoisy(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	src := rng.New(6)
	var hd stats.Summary
	for k := 0; k < 300; k++ {
		ch := d.ExpandChallenge(src.Uint64(), 0)
		a := dev.RawResponseCopy(ch)
		b := dev.RawResponse(ch)
		hd.Add(float64(stats.HammingDistance(a, b)))
	}
	frac := hd.Mean() / 16
	if frac < 0.02 || frac > 0.3 {
		t.Errorf("intra-chip noise fraction %v outside the plausible band", frac)
	}
}

func TestDifferentChipsRespondDifferently(t *testing.T) {
	d := MustNewDesign(testConfig())
	master := rng.New(5)
	devA := MustNewDevice(d, master, 0)
	devB := MustNewDevice(d, master, 1)
	src := rng.New(7)
	var hd stats.Summary
	for k := 0; k < 300; k++ {
		ch := d.ExpandChallenge(src.Uint64(), 0)
		hd.Add(float64(stats.HammingDistance(
			devA.NoiselessResponse(ch), devB.NoiselessResponse(ch))))
	}
	frac := hd.Mean() / 16
	if frac < 0.15 || frac > 0.55 {
		t.Errorf("inter-chip fraction %v outside the plausible band", frac)
	}
}

func TestMajorityResponseReducesNoise(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	src := rng.New(8)
	var raw, voted stats.Summary
	for k := 0; k < 200; k++ {
		ch := d.ExpandChallenge(src.Uint64(), 0)
		ref := dev.NoiselessResponse(ch)
		raw.Add(float64(stats.HammingDistance(ref, dev.RawResponseCopy(ch))))
		voted.Add(float64(stats.HammingDistance(ref, dev.MajorityResponse(ch, 7))))
	}
	if voted.Mean() >= raw.Mean() {
		t.Errorf("majority voting did not reduce noise: raw %v, voted %v", raw.Mean(), voted.Mean())
	}
}

func TestMajorityResponsePanicsOnEvenVotes(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on even votes")
		}
	}()
	dev.MajorityResponse(d.ExpandChallenge(1, 0), 4)
}

func TestEmulatorMatchesNoiselessDevice(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 3)
	em := dev.Emulator()
	if em.ChipID() != 3 {
		t.Errorf("emulator chip id %d", em.ChipID())
	}
	src := rng.New(9)
	for k := 0; k < 300; k++ {
		ch := d.ExpandChallenge(src.Uint64(), 0)
		want := dev.NoiselessResponse(ch)
		got := em.Respond(ch)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("emulator diverges from device at challenge %d bit %d", k, i)
			}
		}
	}
}

func TestEmulatorOfOtherChipDiverges(t *testing.T) {
	d := MustNewDesign(testConfig())
	master := rng.New(5)
	devA := MustNewDevice(d, master, 0)
	devB := MustNewDevice(d, master, 1)
	emB := devB.Emulator()
	src := rng.New(10)
	diverged := false
	for k := 0; k < 100 && !diverged; k++ {
		ch := d.ExpandChallenge(src.Uint64(), 0)
		want := devA.NoiselessResponse(ch)
		got := emB.Respond(ch)
		for i := range want {
			if got[i] != want[i] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Error("emulator of chip B perfectly predicts chip A — unclonability broken")
	}
}

func TestConditionsChangeDelaysButMostlyNotResponses(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	ch := d.ExpandChallenge(11, 0)
	nominal := append([]uint8(nil), dev.NoiselessResponse(ch)...)
	nominalCP := dev.CriticalPathPs()

	dev.SetConditions(delay.Conditions{VddScale: 0.9, TempC: 120})
	slowCP := dev.CriticalPathPs()
	if slowCP <= nominalCP {
		t.Errorf("critical path at slow corner (%v) not longer than nominal (%v)", slowCP, nominalCP)
	}
	src := rng.New(12)
	var hd stats.Summary
	for k := 0; k < 300; k++ {
		c := d.ExpandChallenge(src.Uint64(), 0)
		dev.SetConditions(delay.Nominal())
		ref := append([]uint8(nil), dev.NoiselessResponse(c)...)
		dev.SetConditions(delay.Conditions{VddScale: 0.9, TempC: 120})
		hd.Add(float64(stats.HammingDistance(ref, dev.NoiselessResponse(c))))
	}
	// Corners flip only borderline bits; the paper's robustness claim.
	if frac := hd.Mean() / 16; frac > 0.25 {
		t.Errorf("corner flipped %v of bits noiselessly; PUF not robust", frac)
	}
	_ = nominal
}

func TestClockedResponseAtGenerousClockMatchesRaw(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	ch := d.ExpandChallenge(13, 0)
	minCycle := dev.MinReliableCyclePs(ch, 20)
	resp, valid := dev.ClockedResponse(ch, minCycle+1, 20)
	if valid != d.ResponseBits() {
		t.Fatalf("only %d/%d bits valid at a sufficient clock", valid, d.ResponseBits())
	}
	ref := dev.NoiselessResponse(ch)
	// With jitter the borderline bits may differ; majority of bits must
	// agree.
	if hd := stats.HammingDistance(resp, ref); hd > d.ResponseBits()/3 {
		t.Errorf("clocked response differs from reference by %d bits", hd)
	}
}

func TestClockedResponseDegradesWhenOverclocked(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	src := rng.New(14)
	const setup = 20.0
	var validSlow, validFast int
	trials := 100
	for k := 0; k < trials; k++ {
		ch := d.ExpandChallenge(src.Uint64(), 0)
		full := dev.MinReliableCyclePs(ch, setup) + 0.01
		_, v1 := dev.ClockedResponse(ch, full, setup)
		validSlow += v1
		_, v2 := dev.ClockedResponse(ch, full*0.6, setup)
		validFast += v2
	}
	if validSlow != trials*d.ResponseBits() {
		t.Errorf("valid bits at full cycle: %d, want all %d", validSlow, trials*d.ResponseBits())
	}
	if validFast >= validSlow {
		t.Error("overclocking did not corrupt any response bits")
	}
}

func TestCriticalPathBoundsArrivals(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	cp := dev.CriticalPathPs()
	src := rng.New(15)
	for k := 0; k < 100; k++ {
		ch := d.ExpandChallenge(src.Uint64(), 0)
		if m := dev.MinReliableCyclePs(ch, 0); m > cp+math.Abs(maxSkew(d))+1e-9 {
			t.Fatalf("arrival %v exceeds static critical path %v", m, cp)
		}
	}
}

func maxSkew(d *Design) float64 {
	m := 0.0
	for _, s := range d.SkewPs() {
		if math.Abs(s) > m {
			m = math.Abs(s)
		}
	}
	return m
}

func TestEventDrivenSettleNearLevelizedBound(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	ch := d.ChallengeFromOperands(0xFFFF, 0x0001) // full carry chain
	settle := dev.EventDrivenSettleTime(ch)
	cp := dev.CriticalPathPs()
	if settle <= 0 {
		t.Fatal("event-driven settle time not positive")
	}
	if settle > cp+1e-9 {
		t.Errorf("event-driven settle %v exceeds static bound %v", settle, cp)
	}
}

func TestQueriesCounter(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	ch := d.ExpandChallenge(1, 0)
	dev.RawResponse(ch)
	dev.NoiselessResponse(ch)
	dev.MajorityResponse(ch, 3)
	if got := dev.Queries(); got != 5 {
		t.Errorf("query counter = %d, want 5", got)
	}
}

// TestMajorityResponseIsOnePass pins the sequential majority: on twin
// devices MajorityResponse(ch, 5) equals the bitwise majority of five
// RawResponse(ch) calls, noise draw for noise draw, and costs one
// gate-level pass, not one per vote.
func TestMajorityResponseIsOnePass(t *testing.T) {
	const votes = 5
	passes := telemetry.Default().Counter("sim_levelized_passes_total", "")
	for _, sc := range engineScenarios() {
		if sc.name != "rca-fused" && sc.name != "corner-and-skew" {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			voted, raw := twinDevice(t, 321), twinDevice(t, 321)
			if sc.prep != nil {
				sc.prep(voted)
				sc.prep(raw)
			}
			counts := make([]int, raw.Design().ResponseBits())
			for k, ch := range batchChallenges(raw.Design(), 200, 322) {
				before := passes.Value()
				got := voted.MajorityResponse(ch, votes)
				if d := passes.Value() - before; d != 1 {
					t.Fatalf("challenge %d: MajorityResponse ran %d levelized passes, want 1", k, d)
				}
				clear(counts)
				for v := 0; v < votes; v++ {
					for i, bit := range raw.RawResponse(ch) {
						counts[i] += int(bit)
					}
				}
				for i, c := range counts {
					var want uint8
					if 2*c > votes {
						want = 1
					}
					if got[i] != want {
						t.Fatalf("challenge %d bit %d: majority %d, %d of %d raw votes set", k, i, got[i], c, votes)
					}
				}
			}
		})
	}
}

func TestPipelineRoundTrip(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	p := MustNewPipeline(dev)
	v := MustNewVerifierPipeline(dev.Emulator())
	src := rng.New(16)
	mismatches := 0
	const trials = 60
	for k := 0; k < trials; k++ {
		seed := src.Uint64()
		out, err := p.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Z) != 16 || len(out.Helpers) != 8 {
			t.Fatalf("output shape: z %d bits, %d helpers", len(out.Z), len(out.Helpers))
		}
		got, err := v.Recover(seed, out.Helpers)
		if err != nil {
			t.Fatal(err)
		}
		if got != out.ZWord() {
			mismatches++
		}
	}
	if mismatches > trials/20 {
		t.Errorf("verifier failed to recover z in %d/%d queries", mismatches, trials)
	}
}

func TestPipelineRepeatedInvocationsEachVerify(t *testing.T) {
	// Reverse fuzzy extractor semantics: z is a per-invocation value (the
	// raw measurement differs run to run), but every invocation's z is
	// exactly recoverable by the verifier from that invocation's helper
	// data. This is the property the attestation protocol relies on.
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	p := MustNewPipeline(dev)
	v := MustNewVerifierPipeline(dev.Emulator())
	failures := 0
	const trials = 30
	for k := 0; k < trials; k++ {
		for rep := 0; rep < 2; rep++ {
			out, err := p.Query(uint64(k))
			if err != nil {
				t.Fatal(err)
			}
			got, err := v.Recover(uint64(k), out.Helpers)
			if err != nil {
				t.Fatal(err)
			}
			if got != out.ZWord() {
				failures++
			}
		}
	}
	if failures > trials/10 {
		t.Errorf("%d/%d invocations failed verification", failures, 2*trials)
	}
}

func TestVerifierPipelineRejectsWrongHelperCount(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	v := MustNewVerifierPipeline(dev.Emulator())
	if _, err := v.Recover(1, make([]uint64, 3)); err == nil {
		t.Error("wrong helper count accepted")
	}
}

// TestVerifierRecoverDoesNotAllocate: recovering z over an Emulator —
// eight reference emulations, sketch recoveries and the network — makes no
// heap allocation, at both sketch widths.
func TestVerifierRecoverDoesNotAllocate(t *testing.T) {
	for _, width := range []int{16, 32} {
		cfg := DefaultConfig()
		cfg.Width = width
		dev := MustNewDevice(MustNewDesign(cfg), rng.New(7), 0)
		out, err := MustNewPipeline(dev).Query(99)
		if err != nil {
			t.Fatal(err)
		}
		v := MustNewVerifierPipeline(dev.Emulator())
		var z uint64
		allocs := testing.AllocsPerRun(50, func() {
			z, err = v.Recover(99, out.Helpers)
		})
		if err != nil || z != out.ZWord() {
			t.Fatalf("width %d: Recover = %#x, %v; prover z %#x", width, z, err, out.ZWord())
		}
		if allocs != 0 {
			t.Errorf("width %d: Recover makes %v allocations, want 0", width, allocs)
		}
	}
}

func TestPipelineRejectsUnsupportedWidth(t *testing.T) {
	cfg := testConfig()
	cfg.Width = 20
	d := MustNewDesign(cfg)
	dev := MustNewDevice(d, rng.New(5), 0)
	if _, err := NewPipeline(dev); err == nil {
		t.Error("pipeline accepted a width with no sketch instance")
	}
}

func TestUseCarryAddsResponseBit(t *testing.T) {
	cfg := testConfig()
	cfg.UseCarry = true
	d := MustNewDesign(cfg)
	if d.ResponseBits() != 17 {
		t.Errorf("ResponseBits = %d, want 17", d.ResponseBits())
	}
	dev := MustNewDevice(d, rng.New(5), 0)
	if got := len(dev.NoiselessResponse(d.ExpandChallenge(1, 0))); got != 17 {
		t.Errorf("response length %d, want 17", got)
	}
}

func TestOutputZWord(t *testing.T) {
	o := Output{Z: []uint8{1, 0, 1}}
	if o.ZWord() != 0b101 {
		t.Errorf("ZWord = %#b", o.ZWord())
	}
}

func TestEmulatorPanicsOnMismatchedModel(t *testing.T) {
	d16 := MustNewDesign(testConfig())
	cfg32 := DefaultConfig()
	d32 := MustNewDesign(cfg32)
	dev := MustNewDevice(d32, rng.New(5), 0)
	m := dev.ExportModel()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched model/design")
		}
	}()
	NewEmulator(d16, m)
}

// TestExportModelIsACopy pins that an exported model owns its delay table:
// Device.Emulator shares the device's nominal table, so a holder writing
// over an exported table must not reach the device or its emulators.
func TestExportModelIsACopy(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	em := dev.Emulator()
	ch := d.ExpandChallenge(1, 0)
	want := em.Respond(ch)
	wantDev := dev.NoiselessResponse(ch)
	m := dev.ExportModel()
	for g := range m.Table.Ps {
		m.Table.Ps[g] = 0
	}
	for _, got := range [][]uint8{em.Respond(ch), dev.Emulator().Respond(ch)} {
		if !slices.Equal(got, want) {
			t.Fatalf("emulator response %v after overwriting an exported table, want %v", got, want)
		}
	}
	if got := dev.NoiselessResponse(ch); !slices.Equal(got, wantDev) {
		t.Fatalf("device response %v after overwriting an exported table, want %v", got, wantDev)
	}
}

func TestArrivalDeltasExposePhysics(t *testing.T) {
	d := MustNewDesign(testConfig())
	dev := MustNewDevice(d, rng.New(5), 0)
	ch := d.ExpandChallenge(1, 0)
	deltas := dev.ArrivalDeltas(ch)
	if len(deltas) != 16 {
		t.Fatalf("deltas length %d", len(deltas))
	}
	resp := dev.NoiselessResponse(ch)
	for i, dl := range deltas {
		want := uint8(0)
		if dl > 0 {
			want = 1
		}
		if resp[i] != want {
			t.Errorf("bit %d inconsistent with delta %v", i, dl)
		}
	}
}

func TestArbitraryWidthDevices(t *testing.T) {
	// The paper: "depending on the operand bit-length of the adders in the
	// ALU, we can easily build ALU PUFs with an arbitrary number of
	// response bits". Raw-PUF operation must work at any width in [2,64];
	// only the ECC pipeline is width-restricted.
	for _, width := range []int{2, 8, 24, 48, 64} {
		cfg := DefaultConfig()
		cfg.Width = width
		d := MustNewDesign(cfg)
		dev := MustNewDevice(d, rng.New(uint64(width)), 0)
		ch := d.ExpandChallenge(1, 0)
		resp := dev.RawResponseCopy(ch)
		if len(resp) != width {
			t.Errorf("width %d: response has %d bits", width, len(resp))
		}
		em := dev.Emulator()
		want := dev.NoiselessResponse(ch)
		got := em.Respond(ch)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("width %d: emulator diverges", width)
				break
			}
		}
	}
}

func TestUseCarryEmulation(t *testing.T) {
	cfg := testConfig()
	cfg.UseCarry = true
	d := MustNewDesign(cfg)
	dev := MustNewDevice(d, rng.New(300), 0)
	em := dev.Emulator()
	src := rng.New(301)
	for k := 0; k < 50; k++ {
		ch := d.ExpandChallenge(src.Uint64(), 0)
		want := dev.NoiselessResponse(ch)
		got := em.Respond(ch)
		if len(got) != 17 {
			t.Fatalf("carry response width %d", len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatal("carry-bit emulation diverges")
			}
		}
	}
}
