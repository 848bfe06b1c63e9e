package experiments

import (
	"fmt"
	"strings"

	"pufatt/internal/core"
	"pufatt/internal/ecc"
	"pufatt/internal/rng"
	"pufatt/internal/stats"
)

// FNRResult is the Monte-Carlo false-negative-rate experiment: the
// end-to-end reverse-fuzzy-extractor failure probability measured with real
// device physics (process variation, arbiter noise, temporal majority
// voting) rather than the analytic binomial model of Figure4. Each trial
// enrolls a noiseless nominal reference, measures a voted response, and
// checks that the secure sketch recovers the measurement exactly from the
// reference plus helper data.
type FNRResult struct {
	Trials   int
	Votes    int
	Failures int
	// MeasuredFNR is Failures/Trials; zero failures at small scale means
	// only an upper bound of ~1/Trials.
	MeasuredFNR float64
	// PerBitErr is the voted per-bit error rate observed during the run —
	// the p that feeds the analytic comparison.
	PerBitErr float64
	// AnalyticFNRT7 is the bounded-distance t=7 analytic FNR at the
	// measured p; PaperFNR is the paper's reported number.
	AnalyticFNRT7 float64
	PaperFNR      float64
}

// FNRMonteCarlo measures the PUF() recovery failure rate over trials
// independent challenges with votes-fold majority voting, running the PUF
// evaluations on the parallel batch engine (workers knob, 0 = GOMAXPROCS;
// results identical for every worker count).
func FNRMonteCarlo(cfg core.Config, trials, votes int, seed uint64, workers int) (*FNRResult, error) {
	if trials < 1 {
		return nil, fmt.Errorf("experiments: FNR Monte-Carlo needs >= 1 trial, have %d", trials)
	}
	design, err := core.NewDesign(cfg)
	if err != nil {
		return nil, err
	}
	dev, err := core.NewDevice(design, rng.New(seed), 0)
	if err != nil {
		return nil, err
	}
	bits := design.ResponseBits()
	code, err := ecc.ForResponseWidth(bits)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	sketch := ecc.NewSketch(code)
	res := &FNRResult{Trials: trials, Votes: votes, PaperFNR: 1.53e-7}

	chSrc := rng.New(seed).Sub("challenges/fnr")
	blk := blockSeeds
	if blk > trials {
		blk = trials
	}
	be := core.NewBatchEvaluator(dev)
	challenges := core.ChallengeMatrix(design, blk)
	refDst := be.ResponseMatrix(blk)
	measDst := be.ResponseMatrix(blk)
	errBits, totalBits := 0, 0
	for start := 0; start < trials; start += blk {
		cnt := blk
		if trials-start < cnt {
			cnt = trials - start
		}
		for k := 0; k < cnt; k++ {
			design.ExpandChallengeInto(challenges[k], chSrc.Uint64(), 0)
		}
		refs := be.NoiselessResponses(challenges[:cnt], refDst, workers)
		meas := be.MajorityResponses(challenges[:cnt], measDst, votes, workers)
		for k := 0; k < cnt; k++ {
			errBits += stats.HammingDistance(refs[k], meas[k])
			totalBits += bits
			h, err := sketch.Generate(meas[k])
			if err != nil {
				res.Failures++
				continue
			}
			rec, _, err := sketch.Recover(ecc.BitsToWord(refs[k]), h)
			if err != nil || rec != ecc.BitsToWord(meas[k]) {
				res.Failures++
			}
		}
	}
	res.MeasuredFNR = float64(res.Failures) / float64(trials)
	res.PerBitErr = float64(errBits) / float64(totalBits)
	res.AnalyticFNRT7 = ecc.AnalyticFNR(bits, 7, res.PerBitErr)
	return res, nil
}

// Format renders the FNR Monte-Carlo comparison.
func (r *FNRResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FNR Monte-Carlo — %d trials, %d-vote majority\n", r.Trials, r.Votes)
	fmt.Fprintf(&b, "  measured per-bit error (voted): %.4f\n", r.PerBitErr)
	if r.Failures == 0 {
		fmt.Fprintf(&b, "  recovery failures: 0/%d (FNR < %.2g at this scale)\n", r.Trials, 1/float64(r.Trials))
	} else {
		fmt.Fprintf(&b, "  recovery failures: %d/%d = %.3g\n", r.Failures, r.Trials, r.MeasuredFNR)
	}
	fmt.Fprintf(&b, "  analytic FNR, bounded t=7 at measured p: %.3g\n", r.AnalyticFNRT7)
	fmt.Fprintf(&b, "  paper reports: %.3g\n", r.PaperFNR)
	return b.String()
}
