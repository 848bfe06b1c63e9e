package secgame

import (
	"math"
	"sort"
	"strings"
	"testing"

	"pufatt/internal/attacks"
	"pufatt/internal/attest"
	"pufatt/internal/core"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

// buildWorld assembles the honest stack plus the adversary strategies, with
// the timing policy derived from the measured forgery overhead (as in the
// attacks package).
func buildWorld(t *testing.T) (*Experiment, *attest.Prover, map[string]attest.ProverAgent) {
	t.Helper()
	dev := core.MustNewDevice(core.MustNewDesign(core.DefaultConfig()), rng.New(100), 0)
	p := swatt.Params{MemWords: 1024, Chunks: 4, BlocksPerChunk: 16, PRG: swatt.PRGMix32}
	payload := make([]uint32, 300)
	src := rng.New(101)
	for i := range payload {
		payload[i] = src.Uint32()
	}
	image, err := swatt.BuildImage(p, payload)
	if err != nil {
		t.Fatal(err)
	}
	honest, verifier, err := attest.NewPair(dev, image)
	if err != nil {
		t.Fatal(err)
	}
	extra, honestCycles, _, err := attacks.ForgeryOverheadCycles(image, honest.Port.Votes)
	if err != nil {
		t.Fatal(err)
	}
	link := attest.Link{LatencySeconds: 5e-7, BitsPerSecond: 1e9}
	verifier.ComputeSlack = 0.25 * float64(extra) / float64(honestCycles)
	verifier.NetworkAllowance = link.TransferSeconds(attest.ChallengeBits) +
		link.TransferSeconds((8+32)*8+8*p.Chunks*attest.HelperBitsPerWord+32) +
		0.25*float64(extra)/honest.FreqHz

	infected := attest.NewProver(image.Clone(), honest.Port, honest.FreqHz)
	for i := 0; i < 64; i++ {
		infected.Image.Mem[image.Layout.PayloadAddr+i] ^= 0xFF
	}
	forger, err := attacks.NewForgeryProver(image, []uint32{0xBAD}, honest.Port, honest.FreqHz)
	if err != nil {
		t.Fatal(err)
	}
	factor, err := attacks.OverclockFactorToHide(image, honest.Port.Votes, verifier.ComputeSlack)
	if err != nil {
		t.Fatal(err)
	}
	ocForger, err := attacks.NewOverclockedForgeryProver(image, []uint32{0xBAD}, honest.Port, honest.FreqHz, factor*1.05)
	if err != nil {
		t.Fatal(err)
	}
	proxy := &attacks.OracleProxyProver{
		Expected: image,
		Pipeline: core.MustNewPipeline(dev),
		Link:     attest.DefaultLink(),
	}
	adversaries := map[string]attest.ProverAgent{
		"naive-malware":       infected,
		"memory-copy-forgery": forger,
		"overclocked-forgery": ocForger,
		"oracle-proxy":        proxy,
	}
	return NewExperiment(verifier, link, 12), honest, adversaries
}

func TestExperiments(t *testing.T) {
	exp, honest, adversaries := buildWorld(t)
	report := &Report{Correctness: exp.Run("honest", honest)}
	// Each strategy plays against a fresh world: the verifier's session
	// counter seeds the challenges and the device port is stateful, so
	// strategies sharing one world would see challenge sequences (and hence
	// outcomes) that depend on which strategies ran before them. Isolated
	// worlds make every strategy's result deterministic and order-free.
	names := make([]string, 0, len(adversaries))
	for name := range adversaries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		exp, _, fresh := buildWorld(t)
		report.Soundness = append(report.Soundness, exp.Run(name, fresh[name]))
	}
	if !report.CorrectnessHolds() {
		t.Errorf("correctness failed:\n%s", report.Format())
	}
	if !report.SoundnessHolds() {
		t.Errorf("an adversary won:\n%s", report.Format())
	}
	// With 12 trials at 99 %, ε upper bound for 0 wins ≈ 0.36.
	if eps := report.SoundnessEpsilon(); eps >= 0.5 {
		t.Errorf("epsilon bound %v too loose", eps)
	}
	out := report.Format()
	for _, want := range []string{"correctness", "soundness", "verdict", "ε"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestWilsonUpper(t *testing.T) {
	// 0/0 trials → no information → 1.
	if wilsonUpper(0, 0, 2.576) != 1 {
		t.Error("no-trials bound should be 1")
	}
	// 0 wins out of n: bound shrinks with n.
	b10 := wilsonUpper(0, 10, 2.576)
	b100 := wilsonUpper(0, 100, 2.576)
	if !(b100 < b10 && b10 < 1) {
		t.Errorf("bounds not shrinking: %v, %v", b10, b100)
	}
	// All wins: bound is 1 (capped).
	if got := wilsonUpper(10, 10, 2.576); got != 1 {
		t.Errorf("all-wins bound = %v", got)
	}
	// Half wins at large n: close to 0.5.
	if got := wilsonUpper(500, 1000, 2.576); math.Abs(got-0.54) > 0.02 {
		t.Errorf("half-wins bound = %v", got)
	}
}

func TestReportEdgeCases(t *testing.T) {
	r := &Report{}
	if r.SoundnessHolds() {
		t.Error("empty soundness set should not hold vacuously")
	}
	if r.SoundnessEpsilon() != 0 {
		t.Error("empty epsilon should be 0")
	}
	r.Soundness = append(r.Soundness, Outcome{Strategy: "x", Wins: 1, Trials: 10, WinRate: 0.1, EpsilonUpper: 0.4})
	if r.SoundnessHolds() {
		t.Error("a winning adversary should break soundness")
	}
}
