package attacks

import (
	"math"
	"strings"
	"testing"

	"pufatt/internal/attest"
	"pufatt/internal/core"
	"pufatt/internal/mcu"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

// scenario wires up the honest world: device, port, image, prover,
// verifier — the target all adversaries attack.
type scenario struct {
	dev      *core.Device
	port     *mcu.DevicePort
	image    *swatt.Image
	prover   *attest.Prover
	verifier *attest.Verifier
	params   swatt.Params
}

func newScenario(t *testing.T, seed uint64) *scenario {
	t.Helper()
	dev := core.MustNewDevice(core.MustNewDesign(core.DefaultConfig()), rng.New(seed), 0)
	p := swatt.Params{MemWords: 1024, Chunks: 4, BlocksPerChunk: 16, PRG: swatt.PRGMix32}
	payload := make([]uint32, 300)
	src := rng.New(seed + 1)
	for i := range payload {
		payload[i] = src.Uint32()
	}
	image, err := swatt.BuildImage(p, payload)
	if err != nil {
		t.Fatal(err)
	}
	prover, verifier, err := attest.NewPair(dev, image)
	if err != nil {
		t.Fatal(err)
	}
	// Timed attestation needs the timing policy calibrated to the actual
	// compute scale: the honest prover runs microseconds of checksum at
	// ~700 MHz, so the verifier here plays the role of a local/VIPER-style
	// checker with a fast bus and a tight allowance, derived so that the
	// honest run fits comfortably and the forgery overhead cannot hide.
	extra, honest, _, err := ForgeryOverheadCycles(image, prover.Port.Votes)
	if err != nil {
		t.Fatal(err)
	}
	overheadT := float64(extra) / prover.FreqHz
	verifier.ComputeSlack = 0.25 * float64(extra) / float64(honest)
	link := localLink()
	linkCost := link.TransferSeconds(attest.ChallengeBits) + link.TransferSeconds((8+32)*8+8*p.Chunks*attest.HelperBitsPerWord+32)
	verifier.NetworkAllowance = linkCost + 0.25*overheadT
	return &scenario{dev: dev, port: prover.Port, image: image, prover: prover, verifier: verifier, params: p}
}

// localLink models the verifier sitting on a fast local bus (the VIPER
// setting), where microsecond compute overheads are observable.
func localLink() attest.Link {
	return attest.Link{LatencySeconds: 5e-7, BitsPerSecond: 1e9}
}

func fixedChallenge(nonce uint32) attest.Challenge {
	return attest.Challenge{Session: 1, Nonce: nonce, PUFSeed: nonce * 3}
}

func verifyLocal(s *scenario, agent attest.ProverAgent, ch attest.Challenge) attest.Result {
	resp, compute, err := agent.Respond(ch)
	if err != nil {
		return attest.Result{Reason: "agent error: " + err.Error()}
	}
	link := localLink()
	elapsed := link.TransferSeconds(attest.ChallengeBits) + compute + link.TransferSeconds(resp.Bits())
	return s.verifier.Verify(ch, resp, elapsed)
}

func TestHonestBaselineAccepted(t *testing.T) {
	s := newScenario(t, 1)
	res := verifyLocal(s, s.prover, fixedChallenge(0x11))
	if !res.Accepted {
		t.Fatalf("honest baseline rejected: %s", res.Reason)
	}
}

func TestForgeryComputesCorrectChecksumButMissesDeadline(t *testing.T) {
	s := newScenario(t, 2)
	malware := make([]uint32, 300)
	for i := range malware {
		malware[i] = 0xEE71 // the infection pattern
	}
	forger, err := NewForgeryProver(s.image, malware, s.port, s.prover.FreqHz)
	if err != nil {
		t.Fatal(err)
	}
	ch := fixedChallenge(0x22)
	resp, compute, err := forger.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	// The forgery must produce the CORRECT tag (that is its whole point):
	// verify with unlimited time.
	if res := s.verifier.Verify(ch, resp, 0); !res.Accepted {
		t.Fatalf("forgery checksum wrong — attack implementation broken: %s", res.Reason)
	}
	// But with honest timing it must exceed δ.
	honestResp, honestCompute, _ := s.prover.Respond(ch)
	_ = honestResp
	if compute <= honestCompute {
		t.Fatalf("forgery compute %v not slower than honest %v", compute, honestCompute)
	}
	res := verifyLocal(s, forger, ch)
	if res.Accepted {
		t.Fatalf("forgery accepted: elapsed %v vs δ %v", res.Elapsed, res.Delta)
	}
	if !strings.Contains(res.Reason, "time bound") {
		t.Errorf("forgery rejected for the wrong reason: %s", res.Reason)
	}
}

func TestForgeryOverheadMeasurable(t *testing.T) {
	s := newScenario(t, 3)
	extra, honest, forged, err := ForgeryOverheadCycles(s.image, s.port.Votes)
	if err != nil {
		t.Fatal(err)
	}
	if extra == 0 || forged != honest+extra {
		t.Fatalf("overhead accounting: extra=%d honest=%d forged=%d", extra, honest, forged)
	}
	rel := float64(extra) / float64(honest)
	if rel < 0.02 || rel > 0.5 {
		t.Errorf("relative forgery overhead %.3f outside the plausible band", rel)
	}
	factor, err := OverclockFactorToHide(s.image, s.port.Votes, s.verifier.ComputeSlack)
	if err != nil {
		t.Fatal(err)
	}
	if factor <= 1 {
		t.Errorf("overclock factor to hide = %v, must exceed 1", factor)
	}
}

func TestOverclockedForgeryDefeatedByPUF(t *testing.T) {
	// The paper's headline: the adversary overclocks to hide the forgery
	// overhead; the time bound is now met, but the PUF latch clock rides
	// the CPU clock, responses corrupt, and the checksum is wrong.
	s := newScenario(t, 4)
	factor, err := OverclockFactorToHide(s.image, s.port.Votes, s.verifier.ComputeSlack)
	if err != nil {
		t.Fatal(err)
	}
	// The base frequency is tuned to attest.ClockMargin of the PUF limit,
	// so a factor above its inverse overclocks past it.
	if factor*attest.ClockMargin <= 1.0 {
		t.Skipf("forgery overhead too small to force an unreliable clock (factor %v)", factor)
	}
	forger, err := NewOverclockedForgeryProver(s.image, []uint32{0xBAD}, s.port, s.prover.FreqHz, factor*1.05)
	if err != nil {
		t.Fatal(err)
	}
	ch := fixedChallenge(0x33)
	res := verifyLocal(s, forger, ch)
	if res.Accepted {
		t.Fatal("overclocked forgery accepted — the PUF clock coupling failed")
	}
	// It must now fail on the response, not (only) the time bound.
	if strings.Contains(res.Reason, "time bound") {
		t.Fatalf("overclocking did not even hide the time overhead: %s", res.Reason)
	}
}

func TestOracleProxyExceedsDeadline(t *testing.T) {
	s := newScenario(t, 5)
	proxy := &OracleProxyProver{
		Expected: s.image,
		Pipeline: core.MustNewPipeline(s.dev),
		Link:     attest.DefaultLink(),
	}
	ch := fixedChallenge(0x44)
	// The proxy produces the correct response (it uses the real PUF)...
	resp, compute, err := proxy.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	if res := s.verifier.Verify(ch, resp, 0); !res.Accepted {
		t.Fatalf("oracle proxy response wrong — attack implementation broken: %s", res.Reason)
	}
	// ...but the per-chunk round trips dwarf the honest compute time.
	_, honestCompute, _ := s.prover.Respond(ch)
	if compute < 10*honestCompute {
		t.Errorf("proxy time %v not clearly dominated by link costs (honest %v)", compute, honestCompute)
	}
	res := verifyLocal(s, proxy, ch)
	if res.Accepted {
		t.Fatal("oracle proxy attack accepted")
	}
	if !strings.Contains(res.Reason, "time bound") {
		t.Errorf("proxy rejected for the wrong reason: %s", res.Reason)
	}
}

func TestOracleAttackTimeModel(t *testing.T) {
	link := attest.Link{LatencySeconds: 1e-3, BitsPerSecond: 1e5}
	got := OracleAttackTime(10, link)
	out, back := oracleBitsPerChunk()
	want := 10 * (2*1e-3 + float64(out+back)/1e5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("OracleAttackTime = %v, want %v", got, want)
	}
}

func TestBandwidthToBeatDelta(t *testing.T) {
	// With latency already exceeding delta, no bandwidth helps.
	if got := BandwidthToBeatDelta(64, 1e-3, 0.01); got != -1 {
		t.Errorf("latency-bound case = %v, want -1", got)
	}
	// Otherwise the returned bandwidth makes the attack exactly fit.
	bw := BandwidthToBeatDelta(16, 1e-4, 0.05)
	if bw <= 0 {
		t.Fatalf("bandwidth = %v", bw)
	}
	link := attest.Link{LatencySeconds: 1e-4, BitsPerSecond: bw}
	if tAttack := OracleAttackTime(16, link); math.Abs(tAttack-0.05) > 1e-9 {
		t.Errorf("attack at computed bandwidth takes %v, want 0.05", tAttack)
	}
}

func TestMLAttackBreaksRawPUF(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Width = 16
	dev := core.MustNewDevice(core.MustNewDesign(cfg), rng.New(6), 0)
	m := TrainRawModel(dev, 3000, 25, rng.New(7), 0)
	acc := m.AccuracyRaw(dev, 500, rng.New(8), 0)
	if acc < 0.95 {
		t.Errorf("raw modeling accuracy %.3f; the raw ALU PUF should be near fully modelable", acc)
	}
}

func TestMLAttackDefeatedByObfuscation(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Width = 16
	dev := core.MustNewDevice(core.MustNewDesign(cfg), rng.New(9), 0)
	oracle, err := NewObfuscatedOracle(dev)
	if err != nil {
		t.Fatal(err)
	}
	m := TrainObfuscatedModel(oracle, 2000, 25, rng.New(10), 0)
	acc := m.AccuracyObfuscated(oracle, 300, rng.New(11), 0)
	if acc > 0.85 {
		t.Errorf("obfuscated modeling accuracy %.3f; obfuscation is not working", acc)
	}
	// The practically relevant metric: predicting a full z word. At ~0.7
	// per-bit the full-word success rate collapses.
	fullOK := 0
	src := rng.New(12)
	const trials = 200
	for k := 0; k < trials; k++ {
		seed := uint32(src.Uint64())
		want := oracle.Z(seed)
		got := m.PredictZ(seed)
		match := true
		for i := range want {
			if want[i] != got[i] {
				match = false
				break
			}
		}
		if match {
			fullOK++
		}
	}
	if frac := float64(fullOK) / trials; frac > 0.1 {
		t.Errorf("full-z prediction rate %.3f; attack should be ineffective", frac)
	}
}

func TestOverclockSweepMonotonicity(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Width = 16
	dev := core.MustNewDevice(core.MustNewDesign(cfg), rng.New(13), 0)
	port := mcu.MustNewDevicePort(dev)
	pts := OverclockSweep(dev, port, []float64{0.8, 1.0, 1.3, 1.8, 2.5}, 60, rng.New(14))
	if pts[0].InvalidBitFraction != 0 {
		t.Errorf("reliable clock already has %.3f invalid bits", pts[0].InvalidBitFraction)
	}
	last := pts[len(pts)-1]
	// Per-challenge corruption is a tail phenomenon (typical carry chains
	// are far shorter than the static critical path); even a small bit
	// fraction corrupts most multi-query PUF() outputs. The protocol-level
	// kill switch is the port's worst-case timing monitor.
	if last.InvalidBitFraction < 0.005 {
		t.Errorf("2.5x overclock only corrupts %.4f of bits", last.InvalidBitFraction)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].InvalidBitFraction+1e-9 < pts[i-1].InvalidBitFraction {
			t.Errorf("invalid fraction not monotone: %+v", pts)
		}
	}
	if last.ResponseHD <= pts[0].ResponseHD {
		t.Error("response corruption did not grow with overclocking")
	}
}
