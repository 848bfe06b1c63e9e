package ecc

import (
	"fmt"
	"math/bits"

	"pufatt/internal/stats"
)

// Sketch is the syndrome-construction secure sketch over a linear code: the
// device-side half is a bare matrix multiplication (the paper's "syndrome
// generator", Table 1), and the verifier-side half recovers the device's
// exact noisy response from a reference response and the helper data.
type Sketch struct {
	code *Code
	// BoundedT, when >= 0, restricts recovery to error patterns of weight
	// at most BoundedT (conventional bounded-distance decoding). When
	// negative, recovery is full maximum-likelihood coset decoding.
	BoundedT int
}

// NewSketch returns a secure sketch over the code using maximum-likelihood
// recovery.
func NewSketch(code *Code) *Sketch { return &Sketch{code: code, BoundedT: -1} }

// NewBoundedSketch returns a secure sketch restricted to correcting at most
// t errors.
func NewBoundedSketch(code *Code, t int) *Sketch { return &Sketch{code: code, BoundedT: t} }

// Code returns the underlying linear code.
func (s *Sketch) Code() *Code { return s.code }

// HelperBits returns the helper-data width in bits (n − k; 26 for the
// paper's 32-bit response).
func (s *Sketch) HelperBits() int { return s.code.ParityBits() }

// Generate computes the helper data for a raw response. This is the only
// operation the constrained prover performs.
func (s *Sketch) Generate(response []uint8) (uint64, error) {
	if len(response) != s.code.N {
		return 0, fmt.Errorf("ecc: response of %d bits, want %d", len(response), s.code.N)
	}
	return s.code.Syndrome(BitsToWord(response)), nil
}

// Recover reconstructs the prover's noisy response from the verifier's
// reference response and the helper data, returning the recovered response
// and the number of bit errors corrected. Responses are packed words (bit i
// = response bit i, see BitsToWord); a reference with bits set at or above
// the code length is rejected.
func (s *Sketch) Recover(reference, helper uint64) (uint64, int, error) {
	if reference&^maskN(s.code.N) != 0 {
		return 0, 0, fmt.Errorf("ecc: reference %#x exceeds %d bits", reference, s.code.N)
	}
	synDiff := helper ^ s.code.Syndrome(reference)
	var e uint64
	var err error
	if s.BoundedT >= 0 {
		e, err = s.code.DecodeBounded(synDiff, s.BoundedT)
		if err != nil {
			return 0, 0, err
		}
	} else {
		e = s.code.CosetLeader(synDiff)
	}
	return reference ^ e, bits.OnesCount64(e), nil
}

// AnalyticFNR returns the analytic false-negative rate of bounded-distance
// recovery with capability t under independent per-bit error probability p:
// the probability that more than t of the n response bits flip.
func AnalyticFNR(n, t int, p float64) float64 {
	return stats.BinomialTail(n, t+1, p)
}
