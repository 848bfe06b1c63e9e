package obfuscate

import (
	"testing"
	"testing/quick"

	"pufatt/internal/rng"
	"pufatt/internal/stats"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []int{0, -2, 3, 7} {
		if _, err := New(bad); err == nil {
			t.Errorf("width %d accepted", bad)
		}
	}
	o, err := New(32)
	if err != nil {
		t.Fatal(err)
	}
	if o.ResponseBits() != 32 {
		t.Errorf("ResponseBits = %d", o.ResponseBits())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(3) did not panic")
		}
	}()
	MustNew(3)
}

func TestApplyValidation(t *testing.T) {
	o := MustNew(8)
	if _, err := o.Apply(make([][]uint8, 7)); err == nil {
		t.Error("7 responses accepted")
	}
	rs := make([][]uint8, 8)
	for i := range rs {
		rs[i] = make([]uint8, 8)
	}
	rs[3] = make([]uint8, 6)
	if _, err := o.Apply(rs); err == nil {
		t.Error("mismatched response width accepted")
	}
}

func TestKnownVector(t *testing.T) {
	// Width 4 (n=2). y = [b0 b1 b2 b3] folds to a = [b0^b2, b1^b3].
	o := MustNew(4)
	rs := [][]uint8{
		{1, 0, 0, 0}, // fold: [1,0]
		{0, 1, 0, 0}, // fold: [0,1]  → b0 = [1,0,0,1]
		{0, 0, 1, 0}, // fold: [1,0]
		{0, 0, 0, 1}, // fold: [0,1]  → b1 = [1,0,0,1]
		{1, 0, 1, 0}, // fold: [0,0]
		{0, 1, 0, 1}, // fold: [0,0]  → b2 = [0,0,0,0]
		{1, 1, 0, 0}, // fold: [1,1]
		{0, 0, 1, 1}, // fold: [1,1]  → b3 = [1,1,1,1]
	}
	z, err := o.Apply(rs)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{1, 1, 1, 1} // b0^b1^b2^b3 = 0 ^ 0 ^ [1,1,1,1]... recompute: [1001]^[1001]=0000; ^0000=0000; ^1111=1111
	for i := range want {
		if z[i] != want[i] {
			t.Fatalf("z = %v, want %v", z, want)
		}
	}
}

func TestLinearity(t *testing.T) {
	// The network is GF(2)-linear in its inputs: z(a ⊕ b) = z(a) ⊕ z(b)
	// where ⊕ is element-wise over all eight responses.
	o := MustNew(16)
	src := rng.New(1)
	mk := func() [][]uint8 {
		rs := make([][]uint8, 8)
		for i := range rs {
			rs[i] = make([]uint8, 16)
			src.Bits(rs[i])
		}
		return rs
	}
	for trial := 0; trial < 50; trial++ {
		a, b := mk(), mk()
		xored := make([][]uint8, 8)
		for i := range xored {
			xored[i] = make([]uint8, 16)
			for j := range xored[i] {
				xored[i][j] = a[i][j] ^ b[i][j]
			}
		}
		za := o.MustApply(a)
		zb := o.MustApply(b)
		zx := o.MustApply(xored)
		for j := range zx {
			if zx[j] != za[j]^zb[j] {
				t.Fatal("network is not linear")
			}
		}
	}
}

func TestEachOutputBitDependsOnEightInputBits(t *testing.T) {
	// Flipping any single input bit flips exactly one output bit, and each
	// output bit is reachable from exactly 8 input positions.
	o := MustNew(8)
	base := make([][]uint8, 8)
	for i := range base {
		base[i] = make([]uint8, 8)
	}
	z0 := o.MustApply(base)
	influence := make([]int, 8) // per output bit
	for r := 0; r < 8; r++ {
		for b := 0; b < 8; b++ {
			base[r][b] = 1
			z := o.MustApply(base)
			base[r][b] = 0
			flips := 0
			for j := range z {
				if z[j] != z0[j] {
					flips++
					influence[j]++
				}
			}
			if flips != 1 {
				t.Fatalf("flipping input (%d,%d) flipped %d output bits, want 1", r, b, flips)
			}
		}
	}
	for j, n := range influence {
		if n != 8 {
			t.Errorf("output bit %d influenced by %d input bits, want 8", j, n)
		}
	}
}

func TestObfuscationReducesBias(t *testing.T) {
	// Inputs with per-bit bias 0.7 → XOR of 8 such bits has bias ≈ 0.5 +
	// 2^7·(0.2)^8 ≈ 0.5003. The network's whole purpose in Figure 3.
	o := MustNew(16)
	src := rng.New(2)
	const trials = 4000
	rawOnes, obfOnes := 0, 0
	for trial := 0; trial < trials; trial++ {
		rs := make([][]uint8, 8)
		for i := range rs {
			rs[i] = make([]uint8, 16)
			for j := range rs[i] {
				if src.Float64() < 0.7 {
					rs[i][j] = 1
				}
			}
		}
		rawOnes += stats.HammingWeight(rs[0])
		obfOnes += stats.HammingWeight(o.MustApply(rs))
	}
	rawBias := float64(rawOnes) / (trials * 16)
	obfBias := float64(obfOnes) / (trials * 16)
	if rawBias < 0.65 {
		t.Fatalf("raw bias %v, generator broken", rawBias)
	}
	if obfBias < 0.47 || obfBias > 0.53 {
		t.Errorf("obfuscated bias %v, want ~0.5", obfBias)
	}
}

func TestApplyDoesNotMutateInputs(t *testing.T) {
	o := MustNew(4)
	rs := make([][]uint8, 8)
	for i := range rs {
		rs[i] = []uint8{1, 0, 1, 0}
	}
	o.MustApply(rs)
	for i := range rs {
		for j, want := range []uint8{1, 0, 1, 0} {
			if rs[i][j] != want {
				t.Fatal("Apply mutated its input")
			}
		}
	}
}

func TestApplyDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		o := MustNew(8)
		src := rng.New(seed)
		rs := make([][]uint8, 8)
		for i := range rs {
			rs[i] = make([]uint8, 8)
			src.Bits(rs[i])
		}
		a := o.MustApply(rs)
		b := o.MustApply(rs)
		return stats.HammingDistance(a, b) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// bitFold is the network bit by bit, as the paper states it: the reference
// the word form must equal.
func bitFold(responses [][]uint8) []uint8 {
	width := len(responses[0])
	half := width / 2
	z := make([]uint8, width)
	for j := 0; j < 4; j++ {
		for i := 0; i < half; i++ {
			z[i] ^= (responses[2*j][i] ^ responses[2*j][i+half]) & 1
			z[half+i] ^= (responses[2*j+1][i] ^ responses[2*j+1][i+half]) & 1
		}
	}
	return z
}

// TestApplyWordsMatchesBitFold: at both paper widths the word network
// equals the bit-by-bit fold, through ApplyWords and through the slice
// Apply, and ignores word bits at or above the response width.
func TestApplyWordsMatchesBitFold(t *testing.T) {
	src := rng.New(0xf01d)
	for _, width := range []int{16, 32} {
		o := MustNew(width)
		for trial := 0; trial < 2000; trial++ {
			rs := make([][]uint8, ResponsesPerOutput)
			var ys [ResponsesPerOutput]uint64
			for i := range rs {
				rs[i] = make([]uint8, width)
				src.Bits(rs[i])
				for b, bit := range rs[i] {
					ys[i] |= uint64(bit) << uint(b)
				}
				ys[i] |= src.Uint64() << uint(width) // ignored
			}
			want := bitFold(rs)
			var wantWord uint64
			for i, bit := range want {
				wantWord |= uint64(bit) << uint(i)
			}
			if got := o.ApplyWords(&ys); got != wantWord {
				t.Fatalf("width %d: ApplyWords = %#x, bit fold %#x", width, got, wantWord)
			}
			if got := o.MustApply(rs); string(got) != string(want) {
				t.Fatalf("width %d: Apply = %v, bit fold %v", width, got, want)
			}
		}
	}
}
