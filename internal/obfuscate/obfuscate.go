// Package obfuscate implements the two-phase XOR obfuscation network of the
// paper's Section 2, which hardens the ALU PUF against machine-learning
// modeling attacks (Rührmair et al.).
//
// Phase 1 folds each 2n-bit PUF response y in half with XOR:
//
//	a[i] = y[i] XOR y[i+n]   for 0 <= i < n,
//
// and concatenates the folded halves of two responses into a 2n-bit word
// b = a0 ‖ a1. Phase 2 XORs four such words into the 2n-bit output
// z = b0 ⊕ b1 ⊕ b2 ⊕ b3. One obfuscated output therefore consumes eight raw
// PUF responses, and every output bit is the XOR of eight raw response bits
// drawn from four independent challenges — the property that explodes the
// hypothesis space a delay-model attack must search.
//
// In hardware, the intermediate registers of this network are invisible to
// software running on the processor; this package mirrors that by exposing
// only the final output (intermediate words never leave ApplyWords).
package obfuscate

import "fmt"

// ResponsesPerOutput is the number of raw PUF responses consumed per
// obfuscated output word (two per phase-1 word, four phase-1 words).
const ResponsesPerOutput = 8

// Network is an XOR obfuscation network for 2n-bit PUF responses.
type Network struct {
	half int // n
}

// New returns a network for the given response width, which must be even
// and positive.
func New(responseBits int) (*Network, error) {
	if responseBits <= 0 || responseBits%2 != 0 {
		return nil, fmt.Errorf("obfuscate: response width %d must be positive and even", responseBits)
	}
	return &Network{half: responseBits / 2}, nil
}

// MustNew is New that panics on error.
func MustNew(responseBits int) *Network {
	o, err := New(responseBits)
	if err != nil {
		panic(err)
	}
	return o
}

// ResponseBits returns the raw-response width 2n the network accepts (equal
// to the output width).
func (o *Network) ResponseBits() int { return 2 * o.half }

// fold XORs the upper half of a packed response onto its lower half
// (phase 1 for one response), returning n bits.
func (o *Network) fold(y uint64) uint64 {
	return (y ^ y>>uint(o.half)) & (uint64(1)<<uint(o.half) - 1)
}

// ApplyWords runs the full two-phase network over eight raw responses
// packed as words (bit i = response bit i; bits at or above ResponseBits
// are ignored) and returns the obfuscated output z packed the same way.
func (o *Network) ApplyWords(ys *[ResponsesPerOutput]uint64) uint64 {
	var z uint64
	for j := 0; j < 4; j++ {
		// Phase 1: b_j = fold(y_{2j}) ‖ fold(y_{2j+1}); phase 2 XORs the b_j.
		z ^= o.fold(ys[2*j]) | o.fold(ys[2*j+1])<<uint(o.half)
	}
	return z
}

// Apply is ApplyWords over bit slices: exactly eight raw responses of width
// ResponseBits in, the obfuscated output z of the same width out.
func (o *Network) Apply(responses [][]uint8) ([]uint8, error) {
	if len(responses) != ResponsesPerOutput {
		return nil, fmt.Errorf("obfuscate: %d responses supplied, need %d", len(responses), ResponsesPerOutput)
	}
	width := 2 * o.half
	var ys [ResponsesPerOutput]uint64
	for i, y := range responses {
		if len(y) != width {
			return nil, fmt.Errorf("obfuscate: response %d has %d bits, want %d", i, len(y), width)
		}
		for b, bit := range y {
			ys[i] |= uint64(bit&1) << uint(b)
		}
	}
	zw := o.ApplyWords(&ys)
	z := make([]uint8, width)
	for i := range z {
		z[i] = uint8(zw >> uint(i) & 1)
	}
	return z, nil
}

// MustApply is Apply that panics on error, for callers that construct the
// response set programmatically.
func (o *Network) MustApply(responses [][]uint8) []uint8 {
	z, err := o.Apply(responses)
	if err != nil {
		panic(err)
	}
	return z
}
