// Package ecc implements the helper-data error correction of the PUFatt
// pipeline: binary linear block codes with the syndrome-based secure-sketch
// construction of Herrewege et al. (the "reverse fuzzy extractor" adopted in
// Section 2 of the paper).
//
// On the prover, the only required logic is the syndrome generator — a
// parity-check matrix multiplication producing (n−k) helper bits from an
// n-bit raw PUF response. The verifier, holding an emulated reference
// response, subtracts its own syndrome and decodes the difference to the
// coset leader, recovering the prover's exact noisy response.
//
// The paper specifies a BCH[32,6,16] code. The unique well-known binary
// (32,6,16) code is the first-order Reed–Muller code RM(1,5), which
// NewReedMuller15 instantiates. Decoding is exact maximum-likelihood coset
// decoding (k is small, so the 2^k codewords are enumerated), with an
// optional bounded-distance mode for the conventional t = ⌊(d−1)/2⌋ = 7
// guarantee. The paper's text claims 16 correctable errors, which exceeds
// what any (32,6,16) code guarantees; EXPERIMENTS.md quantifies the
// false-negative rate under both readings.
package ecc

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// ErrDecodeFailure is returned by bounded-distance decoding when the coset
// leader exceeds the requested weight bound.
var ErrDecodeFailure = errors.New("ecc: error pattern exceeds correction bound")

// Code is a binary [N,K] linear block code with N <= 64, represented by
// bitmask rows (bit i of a row = coefficient of codeword position i).
type Code struct {
	N, K int
	D    int // minimum distance, 0 if unknown

	g         []uint64 // K generator rows
	h         []uint64 // N−K parity-check rows
	codewords []uint64 // all 2^K codewords, index = message word
	// Coset-decoding precomputation: hRed = T·h in reduced row-echelon
	// form with pivot columns pivots; T itself is kept so a runtime
	// syndrome can be transformed the same way.
	hRed   []uint64
	tMat   []uint64 // rows of T, width N−K (bit j = coefficient of s_j)
	pivots []int
	// synTab and partTab are Syndrome and CosetLeader's particular
	// solution as byte tables: both maps are GF(2)-linear, so the image of
	// a word is the XOR of its bytes' images, table k holding byte k's.
	synTab, partTab [][256]uint64
}

// NewFromGenerator builds a code from K generator rows of width N. The rows
// must be linearly independent. minDist may be 0 if unknown.
func NewFromGenerator(n, minDist int, gen []uint64) (*Code, error) {
	k := len(gen)
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("ecc: code length %d outside [1,64]", n)
	}
	if k < 1 || k > 22 {
		return nil, fmt.Errorf("ecc: dimension %d outside [1,22] (codeword enumeration)", k)
	}
	if k > n {
		return nil, fmt.Errorf("ecc: dimension %d exceeds length %d", k, n)
	}
	mask := maskN(n)
	c := &Code{N: n, K: k, D: minDist, g: append([]uint64(nil), gen...)}
	for i, row := range c.g {
		if row&^mask != 0 {
			return nil, fmt.Errorf("ecc: generator row %d has bits beyond length %d", i, n)
		}
	}
	if rank(c.g) != k {
		return nil, errors.New("ecc: generator rows are linearly dependent")
	}
	c.h = nullSpace(c.g, n)
	if len(c.h) != n-k {
		return nil, fmt.Errorf("ecc: null space has dimension %d, want %d", len(c.h), n-k)
	}
	c.enumerateCodewords()
	if err := c.prepareCosetDecoding(); err != nil {
		return nil, err
	}
	c.synTab = byteTables(n, func(w uint64) uint64 {
		var s uint64
		for j, row := range c.h {
			s |= uint64(bits.OnesCount64(row&w)&1) << uint(j)
		}
		return s
	})
	c.partTab = byteTables(n-k, func(s uint64) uint64 {
		// Transform s by T, then place the transformed bits on the pivot
		// columns: a v with H·v = s.
		var v uint64
		for j := range c.tMat {
			if bits.OnesCount64(c.tMat[j]&s)&1 == 1 {
				v |= uint64(1) << uint(c.pivots[j])
			}
		}
		return v
	})
	if c.D == 0 {
		c.D = c.computeMinDistance()
	}
	return c, nil
}

func maskN(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// rank computes the GF(2) rank of the rows.
func rank(rows []uint64) int {
	work := append([]uint64(nil), rows...)
	r := 0
	for col := 63; col >= 0; col-- {
		bit := uint64(1) << uint(col)
		pivot := -1
		for i := r; i < len(work); i++ {
			if work[i]&bit != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		work[r], work[pivot] = work[pivot], work[r]
		for i := 0; i < len(work); i++ {
			if i != r && work[i]&bit != 0 {
				work[i] ^= work[r]
			}
		}
		r++
	}
	return r
}

// nullSpace returns a basis of {v : g·vᵀ = 0} as bitmask rows of width n.
func nullSpace(gen []uint64, n int) []uint64 {
	// Row-reduce a copy of gen, tracking pivot columns.
	work := append([]uint64(nil), gen...)
	pivotCol := make([]int, 0, len(work))
	r := 0
	for col := 0; col < n && r < len(work); col++ {
		bit := uint64(1) << uint(col)
		pivot := -1
		for i := r; i < len(work); i++ {
			if work[i]&bit != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		work[r], work[pivot] = work[pivot], work[r]
		for i := range work {
			if i != r && work[i]&bit != 0 {
				work[i] ^= work[r]
			}
		}
		pivotCol = append(pivotCol, col)
		r++
	}
	isPivot := make([]bool, n)
	for _, c := range pivotCol {
		isPivot[c] = true
	}
	var basis []uint64
	for free := 0; free < n; free++ {
		if isPivot[free] {
			continue
		}
		v := uint64(1) << uint(free)
		// For each pivot row, set the pivot coordinate so the row's dot
		// product with v vanishes.
		for ri, pc := range pivotCol {
			dot := bits.OnesCount64(work[ri]&v) & 1
			if dot == 1 {
				v |= uint64(1) << uint(pc)
			}
		}
		basis = append(basis, v)
	}
	return basis
}

func (c *Code) enumerateCodewords() {
	c.codewords = make([]uint64, 1<<uint(c.K))
	for msg := range c.codewords {
		var cw uint64
		for j := 0; j < c.K; j++ {
			if msg>>uint(j)&1 == 1 {
				cw ^= c.g[j]
			}
		}
		c.codewords[msg] = cw
	}
}

// prepareCosetDecoding row-reduces H while tracking the transform T so that
// hRed = T·H with identity on the pivot columns.
func (c *Code) prepareCosetDecoding() error {
	m := c.N - c.K
	h := append([]uint64(nil), c.h...)
	t := make([]uint64, m)
	for i := range t {
		t[i] = 1 << uint(i)
	}
	var pivots []int
	r := 0
	for col := 0; col < c.N && r < m; col++ {
		bit := uint64(1) << uint(col)
		pivot := -1
		for i := r; i < m; i++ {
			if h[i]&bit != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		h[r], h[pivot] = h[pivot], h[r]
		t[r], t[pivot] = t[pivot], t[r]
		for i := 0; i < m; i++ {
			if i != r && h[i]&bit != 0 {
				h[i] ^= h[r]
				t[i] ^= t[r]
			}
		}
		pivots = append(pivots, col)
		r++
	}
	if r != m {
		return errors.New("ecc: parity-check matrix is rank deficient")
	}
	c.hRed, c.tMat, c.pivots = h, t, pivots
	return nil
}

// byteTables tabulates a GF(2)-linear map f of width-bit words byte by
// byte: entry b of table k is f(b << 8k).
func byteTables(width int, f func(uint64) uint64) [][256]uint64 {
	tabs := make([][256]uint64, (width+7)/8)
	for k := range tabs {
		for b := range tabs[k] {
			tabs[k][b] = f(uint64(b) << uint(8*k))
		}
	}
	return tabs
}

// lookup applies a map tabulated by byteTables to w; bits of w beyond the
// tables' width are ignored.
func lookup(tabs [][256]uint64, w uint64) uint64 {
	var out uint64
	for k := range tabs {
		out ^= tabs[k][uint8(w)]
		w >>= 8
	}
	return out
}

func (c *Code) computeMinDistance() int {
	d := c.N + 1
	for _, cw := range c.codewords[1:] {
		if w := bits.OnesCount64(cw); w < d {
			d = w
		}
	}
	return d
}

// ParityBits returns N − K, the helper-data width in bits.
func (c *Code) ParityBits() int { return c.N - c.K }

// T returns the guaranteed correction capability ⌊(D−1)/2⌋.
func (c *Code) T() int { return (c.D - 1) / 2 }

// Codewords returns all 2^K codewords (shared slice; do not modify).
func (c *Code) Codewords() []uint64 { return c.codewords }

// Encode maps a K-bit message word to its codeword.
func (c *Code) Encode(msg uint64) uint64 {
	return c.codewords[msg&maskN(c.K)]
}

// IsCodeword reports whether w is a codeword.
func (c *Code) IsCodeword(w uint64) bool { return c.Syndrome(w) == 0 }

// Syndrome returns the (N−K)-bit syndrome H·wᵀ, packed with row j in bit j.
func (c *Code) Syndrome(w uint64) uint64 { return lookup(c.synTab, w) }

// CosetLeader returns the minimum-weight error vector whose syndrome equals
// s — exact maximum-likelihood decoding by enumeration of the 2^K coset
// elements. Ties resolve to the lexicographically smallest mask, making the
// result deterministic.
func (c *Code) CosetLeader(s uint64) uint64 {
	v := lookup(c.partTab, s) // a particular solution: H·v = s
	best := v
	bestW := bits.OnesCount64(v)
	for _, cw := range c.codewords[1:] {
		e := v ^ cw
		w := bits.OnesCount64(e)
		if w < bestW || (w == bestW && e < best) {
			best, bestW = e, w
		}
	}
	return best
}

// DecodeBounded returns the coset leader for s if its weight is at most
// tBound, and ErrDecodeFailure otherwise. Pass c.T() for the conventional
// bounded-distance guarantee.
func (c *Code) DecodeBounded(s uint64, tBound int) (uint64, error) {
	e := c.CosetLeader(s)
	if bits.OnesCount64(e) > tBound {
		return 0, ErrDecodeFailure
	}
	return e, nil
}

// NewReedMuller15 returns the first-order Reed–Muller code RM(1,5): the
// binary (32, 6, 16) code matching the paper's BCH[32,6,16] parameters. Its
// generator is the all-ones row plus the five coordinate-indicator rows.
func NewReedMuller15() *Code {
	gen := []uint64{
		0xFFFFFFFF, // constant 1
		0xAAAAAAAA, // x0
		0xCCCCCCCC, // x1
		0xF0F0F0F0, // x2
		0xFF00FF00, // x3
		0xFFFF0000, // x4
	}
	c, err := NewFromGenerator(32, 16, gen)
	if err != nil {
		panic("ecc: RM(1,5) construction failed: " + err.Error())
	}
	return c
}

// NewReedMuller14 returns the first-order Reed–Muller code RM(1,4): the
// binary (16, 5, 8) code used for the 16-bit ALU PUF variant implemented on
// the paper's FPGA prototype (11 helper bits, t = 3).
func NewReedMuller14() *Code {
	gen := []uint64{
		0xFFFF, // constant 1
		0xAAAA, // x0
		0xCCCC, // x1
		0xF0F0, // x2
		0xFF00, // x3
	}
	c, err := NewFromGenerator(16, 8, gen)
	if err != nil {
		panic("ecc: RM(1,4) construction failed: " + err.Error())
	}
	return c
}

// The shared codes ForResponseWidth returns, built on first use.
var (
	sharedRM14 = sync.OnceValue(NewReedMuller14)
	sharedRM15 = sync.OnceValue(NewReedMuller15)
)

// ForResponseWidth returns the Reed–Muller sketch code matching a PUF
// response width: RM(1,5) for 32 bits, RM(1,4) for 16 bits. Every call for
// a width returns the same code; a Code is read-only once built, so every
// pipeline, port and verifier shares it (callers must not write its N, K
// or D).
func ForResponseWidth(bits int) (*Code, error) {
	switch bits {
	case 32:
		return sharedRM15(), nil
	case 16:
		return sharedRM14(), nil
	default:
		return nil, fmt.Errorf("ecc: no Reed–Muller instance for %d-bit responses", bits)
	}
}

// BitsToWord packs a bit slice (index 0 = bit 0) into a uint64.
func BitsToWord(bitsSlice []uint8) uint64 {
	if len(bitsSlice) > 64 {
		panic(fmt.Sprintf("ecc: %d bits exceed word size", len(bitsSlice)))
	}
	var w uint64
	for i, b := range bitsSlice {
		w |= uint64(b&1) << uint(i)
	}
	return w
}

// WordToBits unpacks the low n bits of w into a slice.
func WordToBits(w uint64, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(w >> uint(i) & 1)
	}
	return out
}
