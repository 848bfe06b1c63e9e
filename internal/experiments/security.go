package experiments

import (
	"fmt"
	"strings"

	"pufatt/internal/attacks"
	"pufatt/internal/attest"
	"pufatt/internal/core"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

// SecurityConfig parameterises the Section 4.2 security evaluation.
type SecurityConfig struct {
	Attest swatt.Params
	Seed   uint64
	// MLTrain/MLTest size the modeling-attack datasets.
	MLTrain, MLTest int
	// Workers bounds the batch-evaluation fan-out for the ML oracles
	// (0 = GOMAXPROCS).
	Workers int
	// OverclockFactors is the sweep grid for the PUF-corruption curve.
	OverclockFactors []float64
	OverclockTrials  int
}

// DefaultSecurityConfig returns the configuration used by pufatt-attack and
// the benches.
func DefaultSecurityConfig(seed uint64) SecurityConfig {
	return SecurityConfig{
		Attest:           swatt.Params{MemWords: 1024, Chunks: 4, BlocksPerChunk: 16, PRG: swatt.PRGMix32},
		Seed:             seed,
		MLTrain:          3000,
		MLTest:           500,
		OverclockFactors: []float64{0.8, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0},
		OverclockTrials:  100,
	}
}

// ScenarioOutcome is one adversary's protocol outcome.
type ScenarioOutcome struct {
	Name     string
	Result   attest.Result
	Detail   string
	Expected string
}

// SecurityResult is the full Section 4.2 evaluation output.
type SecurityResult struct {
	Outcomes []ScenarioOutcome
	// Forgery accounting.
	HonestCycles, ForgedCycles uint64
	OverclockFactorNeeded      float64
	// Oracle-attack accounting.
	HonestComputeSeconds float64
	OracleAttackSeconds  float64
	Delta                float64
	// ML modeling accuracies.
	MLRawAccuracy float64
	MLObfAccuracy float64
	MLObfFullZ    float64
	// Overclocking corruption curve.
	Overclock []attacks.OverclockPoint
}

// RunSecuritySuite executes the honest baseline and every adversary against
// one freshly manufactured device.
func RunSecuritySuite(cfg SecurityConfig) (*SecurityResult, error) {
	dev, err := core.NewDevice(core.MustNewDesign(core.DefaultConfig()), rng.New(cfg.Seed), 0)
	if err != nil {
		return nil, err
	}
	payload := make([]uint32, 256)
	paySrc := rng.New(cfg.Seed).Sub("payload")
	for i := range payload {
		payload[i] = paySrc.Uint32()
	}
	image, err := swatt.BuildImage(cfg.Attest, payload)
	if err != nil {
		return nil, err
	}
	prover, verifier, err := attest.NewPair(dev, image)
	if err != nil {
		return nil, err
	}
	// Local-bus timing policy derived from the measured forgery overhead
	// (see attacks package tests): honest fits, forgery cannot hide.
	extra, honest, forged, err := attacks.ForgeryOverheadCycles(image, prover.Port.Votes)
	if err != nil {
		return nil, err
	}
	link := attest.Link{LatencySeconds: 5e-7, BitsPerSecond: 1e9}
	linkCost := link.TransferSeconds(attest.ChallengeBits) + link.TransferSeconds(verifier.ExpectedResponseBits())
	verifier.ComputeSlack = 0.25 * float64(extra) / float64(honest)
	verifier.NetworkAllowance = linkCost + 0.25*float64(extra)/prover.FreqHz

	res := &SecurityResult{
		HonestCycles: honest,
		ForgedCycles: forged,
		Delta:        verifier.Delta(),
	}
	res.OverclockFactorNeeded, _ = attacks.OverclockFactorToHide(image, prover.Port.Votes, verifier.ComputeSlack)

	runOne := func(name, expected string, agent attest.ProverAgent, detail string) error {
		ch := attest.Challenge{Session: uint64(len(res.Outcomes) + 1), Nonce: 0x5eed + uint32(len(res.Outcomes)), PUFSeed: 0x9000}
		resp, compute, err := agent.Respond(ch)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
		elapsed := linkCost + compute
		res.Outcomes = append(res.Outcomes, ScenarioOutcome{
			Name:     name,
			Result:   verifier.Verify(ch, resp, elapsed),
			Detail:   detail,
			Expected: expected,
		})
		if name == "honest prover" {
			res.HonestComputeSeconds = compute
		}
		return nil
	}

	if err := runOne("honest prover", "accept", prover, "pristine memory, tuned clock"); err != nil {
		return nil, err
	}

	// Naive malware: infected memory, unmodified checksum.
	infected := attest.NewProver(image.Clone(), prover.Port, prover.FreqHz)
	for i := 0; i < 64; i++ {
		infected.Image.Mem[image.Layout.PayloadAddr+i] ^= 0xFF
	}
	if err := runOne("naive malware", "reject (response)", infected, "64 payload words flipped"); err != nil {
		return nil, err
	}

	// Memory-copy forgery at the honest clock.
	forger, err := attacks.NewForgeryProver(image, []uint32{0xBAD, 0xC0DE}, prover.Port, prover.FreqHz)
	if err != nil {
		return nil, err
	}
	if err := runOne("memory-copy forgery", "reject (time bound)", forger,
		fmt.Sprintf("redirected reads; %d extra cycles (%.1f%%)", extra, 100*float64(extra)/float64(honest))); err != nil {
		return nil, err
	}

	// Overclocked forgery.
	ocFactor := res.OverclockFactorNeeded * 1.05
	ocForger, err := attacks.NewOverclockedForgeryProver(image, []uint32{0xBAD, 0xC0DE}, prover.Port, prover.FreqHz, ocFactor)
	if err != nil {
		return nil, err
	}
	if err := runOne("overclocked forgery", "reject (response)", ocForger,
		fmt.Sprintf("clock x%.3f: fits δ but corrupts the PUF", ocFactor)); err != nil {
		return nil, err
	}
	// Restore the port clock for subsequent users of the device.
	prover.Port.SetClock(prover.FreqHz)

	// PUF-oracle proxy over the radio link.
	proxy := &attacks.OracleProxyProver{
		Expected: image,
		Pipeline: core.MustNewPipeline(dev),
		Link:     attest.DefaultLink(),
	}
	res.OracleAttackSeconds = attacks.OracleAttackTime(cfg.Attest.Chunks, attest.DefaultLink())
	if err := runOne("PUF-oracle proxy", "reject (time bound)", proxy,
		fmt.Sprintf("%d chunk round trips over %s", cfg.Attest.Chunks, attest.DefaultLink())); err != nil {
		return nil, err
	}

	// ML modeling attack (measured on a 16-bit device for speed; the
	// mechanism is width-independent).
	mlCfg := core.DefaultConfig()
	mlCfg.Width = 16
	mlDev, err := core.NewDevice(core.MustNewDesign(mlCfg), rng.New(cfg.Seed+1), 0)
	if err != nil {
		return nil, err
	}
	mlModel := attacks.TrainRawModel(mlDev, cfg.MLTrain, 25, rng.New(cfg.Seed+2), cfg.Workers)
	res.MLRawAccuracy = mlModel.AccuracyRaw(mlDev, cfg.MLTest, rng.New(cfg.Seed+3), cfg.Workers)
	oracle, err := attacks.NewObfuscatedOracle(mlDev)
	if err != nil {
		return nil, err
	}
	obfModel := attacks.TrainObfuscatedModel(oracle, cfg.MLTrain, 25, rng.New(cfg.Seed+4), cfg.Workers)
	res.MLObfAccuracy = obfModel.AccuracyObfuscated(oracle, cfg.MLTest/2, rng.New(cfg.Seed+5), cfg.Workers)
	full := 0
	fz := rng.New(cfg.Seed + 6)
	trials := cfg.MLTest / 2
	for k := 0; k < trials; k++ {
		seed := uint32(fz.Uint64())
		want := oracle.Z(seed)
		got := obfModel.PredictZ(seed)
		ok := true
		for i := range want {
			if want[i] != got[i] {
				ok = false
				break
			}
		}
		if ok {
			full++
		}
	}
	res.MLObfFullZ = float64(full) / float64(trials)

	// Overclock corruption curve (device physics level).
	res.Overclock = attacks.OverclockSweep(dev, prover.Port, cfg.OverclockFactors, cfg.OverclockTrials, rng.New(cfg.Seed+7))
	return res, nil
}

// Format renders the security evaluation.
func (r *SecurityResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Security evaluation (Section 4.2) — δ = %.3g s, honest %d cycles, forged %d cycles\n",
		r.Delta, r.HonestCycles, r.ForgedCycles)
	for _, o := range r.Outcomes {
		verdict := "REJECTED"
		if o.Result.Accepted {
			verdict = "ACCEPTED"
		}
		fmt.Fprintf(&b, "  %-22s %-8s (expected %-20s) %s\n", o.Name, verdict, o.Expected, o.Detail)
		if !o.Result.Accepted {
			fmt.Fprintf(&b, "  %22s   reason: %s\n", "", o.Result.Reason)
		}
	}
	fmt.Fprintf(&b, "  overclock factor needed to hide forgery: %.3f\n", r.OverclockFactorNeeded)
	fmt.Fprintf(&b, "  oracle attack time %.4g s vs honest compute %.4g s\n", r.OracleAttackSeconds, r.HonestComputeSeconds)
	fmt.Fprintf(&b, "  ML modeling: raw %.1f%%, obfuscated %.1f%% per-bit (full-z %.1f%%)\n",
		100*r.MLRawAccuracy, 100*r.MLObfAccuracy, 100*r.MLObfFullZ)
	fmt.Fprintf(&b, "  overclock corruption sweep (physics level; the protocol-level timing\n")
	fmt.Fprintf(&b, "  monitor corrupts everything past x1.0):\n")
	fmt.Fprintf(&b, "    factor | invalid-bit frac | corrupted challenges | HD bits\n")
	for _, p := range r.Overclock {
		fmt.Fprintf(&b, "    x%4.2f  | %.4f           | %.3f                | %.2f\n",
			p.Factor, p.InvalidBitFraction, p.ChallengeCorruptFraction, p.ResponseHD)
	}
	return b.String()
}

// Sane reports whether every adversary was rejected and the honest prover
// accepted — the paper's qualitative claims.
func (r *SecurityResult) Sane() bool {
	for _, o := range r.Outcomes {
		want := strings.HasPrefix(o.Expected, "accept")
		if o.Result.Accepted != want {
			return false
		}
	}
	return true
}
