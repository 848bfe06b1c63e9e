package experiments

import (
	"strings"
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/rng"
)

func TestMeasuredPipelineFNR(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	dev := core.MustNewDevice(core.MustNewDesign(core.DefaultConfig()), rng.New(90), 0)
	pl := core.MustNewPipeline(dev)
	vp := core.MustNewVerifierPipeline(dev.Emulator())
	src := rng.New(91)
	fails := 0
	const N = 4000
	for k := 0; k < N; k++ {
		seed := src.Uint64()
		out, err := pl.Query(seed)
		if err != nil {
			t.Fatal(err)
		}
		z, err := vp.Recover(seed, out.Helpers)
		if err != nil || z != out.ZWord() {
			fails++
		}
	}
	t.Logf("measured PUF() recovery failure rate: %d/%d = %.2e", fails, N, float64(fails)/N)
	// 4000 invocations recover 32000 raw responses; at the calibrated
	// operating point the pipeline should essentially never fail.
	if fails > 2 {
		t.Errorf("PUF() recovery failed %d/%d times; reliability regression", fails, N)
	}
}

func TestFNRMonteCarloSmallRun(t *testing.T) {
	res, err := FNRMonteCarlo(core.DefaultConfig(), 400, 5, 92, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 5-vote majority at the calibrated jitter sits near 1% per bit; the
	// sketch corrects up to 7 of 32 bits, so recovery should essentially
	// never fail at this scale.
	if res.PerBitErr < 0.001 || res.PerBitErr > 0.05 {
		t.Errorf("voted per-bit error %.4f outside the calibrated band", res.PerBitErr)
	}
	if res.Failures > 1 {
		t.Errorf("sketch recovery failed %d/%d trials", res.Failures, res.Trials)
	}
	out := res.Format()
	for _, want := range []string{"FNR Monte-Carlo", "per-bit error", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
	if _, err := FNRMonteCarlo(core.DefaultConfig(), 0, 5, 92, 0); err == nil {
		t.Error("zero-trial run accepted")
	}
}
