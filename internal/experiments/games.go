package experiments

import (
	"pufatt/internal/attacks"
	"pufatt/internal/attest"
	"pufatt/internal/core"
	"pufatt/internal/rng"
	"pufatt/internal/secgame"
	"pufatt/internal/swatt"
)

// SecurityGames runs the game-based correctness/soundness experiments of
// the Armknecht-framework (the paper's declared future work) with `trials`
// fresh-challenge trials per strategy. It assembles the same world as
// RunSecuritySuite — honest device plus the four adversary strategies —
// but reports repeated-trial statistics with ε upper bounds instead of
// single-shot outcomes.
func SecurityGames(seed uint64, trials int) (*secgame.Report, error) {
	dev, err := core.NewDevice(core.MustNewDesign(core.DefaultConfig()), rng.New(seed), 0)
	if err != nil {
		return nil, err
	}
	p := swatt.Params{MemWords: 1024, Chunks: 4, BlocksPerChunk: 16, PRG: swatt.PRGMix32}
	payload := make([]uint32, 300)
	paySrc := rng.New(seed).Sub("payload")
	for i := range payload {
		payload[i] = paySrc.Uint32()
	}
	image, err := swatt.BuildImage(p, payload)
	if err != nil {
		return nil, err
	}
	honest, verifier, err := attest.NewPair(dev, image)
	if err != nil {
		return nil, err
	}
	extra, honestCycles, _, err := attacks.ForgeryOverheadCycles(image, honest.Port.Votes)
	if err != nil {
		return nil, err
	}
	link := attest.Link{LatencySeconds: 5e-7, BitsPerSecond: 1e9}
	verifier.ComputeSlack = 0.25 * float64(extra) / float64(honestCycles)
	verifier.NetworkAllowance = link.TransferSeconds(attest.ChallengeBits) +
		link.TransferSeconds(verifier.ExpectedResponseBits()) +
		0.25*float64(extra)/honest.FreqHz

	infected := attest.NewProver(image.Clone(), honest.Port, honest.FreqHz)
	for i := 0; i < 64; i++ {
		infected.Image.Mem[image.Layout.PayloadAddr+i] ^= 0xFF
	}
	forger, err := attacks.NewForgeryProver(image, []uint32{0xBAD}, honest.Port, honest.FreqHz)
	if err != nil {
		return nil, err
	}
	factor, err := attacks.OverclockFactorToHide(image, honest.Port.Votes, verifier.ComputeSlack)
	if err != nil {
		return nil, err
	}
	ocForger, err := attacks.NewOverclockedForgeryProver(image, []uint32{0xBAD}, honest.Port, honest.FreqHz, factor*1.05)
	if err != nil {
		return nil, err
	}
	proxy := &attacks.OracleProxyProver{
		Expected: image,
		Pipeline: core.MustNewPipeline(dev),
		Link:     attest.DefaultLink(),
	}

	exp := secgame.NewExperiment(verifier, link, trials)
	report := &secgame.Report{Correctness: exp.Run("honest prover", honest)}
	for _, s := range []struct {
		name  string
		agent attest.ProverAgent
	}{
		{"naive malware", infected},
		{"memory-copy forgery", forger},
		{"overclocked forgery", ocForger},
		{"PUF-oracle proxy", proxy},
	} {
		report.Soundness = append(report.Soundness, exp.Run(s.name, s.agent))
	}
	return report, nil
}
