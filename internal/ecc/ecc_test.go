package ecc

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"pufatt/internal/rng"
)

func TestReedMuller15Parameters(t *testing.T) {
	c := NewReedMuller15()
	if c.N != 32 || c.K != 6 {
		t.Fatalf("RM(1,5) = (%d,%d), want (32,6)", c.N, c.K)
	}
	if c.D != 16 {
		t.Fatalf("declared distance %d, want 16", c.D)
	}
	if got := c.computeMinDistance(); got != 16 {
		t.Fatalf("actual minimum distance %d, want 16", got)
	}
	if c.T() != 7 {
		t.Errorf("T() = %d, want 7", c.T())
	}
	if c.ParityBits() != 26 {
		t.Errorf("ParityBits = %d, want 26 (the paper's helper width)", c.ParityBits())
	}
}

func TestRM15WeightDistribution(t *testing.T) {
	// RM(1,5) is the biorthogonal code: weights are 0 (×1), 16 (×62), 32 (×1).
	c := NewReedMuller15()
	counts := map[int]int{}
	for _, cw := range c.Codewords() {
		counts[bits.OnesCount64(cw)]++
	}
	if counts[0] != 1 || counts[16] != 62 || counts[32] != 1 || len(counts) != 3 {
		t.Errorf("weight distribution = %v, want {0:1, 16:62, 32:1}", counts)
	}
}

func TestSyndromeZeroOnCodewords(t *testing.T) {
	c := NewReedMuller15()
	for msg, cw := range c.Codewords() {
		if c.Syndrome(cw) != 0 {
			t.Fatalf("codeword %d has nonzero syndrome", msg)
		}
		if !c.IsCodeword(cw) {
			t.Fatalf("IsCodeword false for codeword %d", msg)
		}
	}
}

func TestSyndromeLinear(t *testing.T) {
	c := NewReedMuller15()
	f := func(a, b uint32) bool {
		return c.Syndrome(uint64(a)^uint64(b)) == c.Syndrome(uint64(a))^c.Syndrome(uint64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCosetLeaderSatisfiesSyndrome(t *testing.T) {
	c := NewReedMuller15()
	f := func(sRaw uint32) bool {
		s := uint64(sRaw) & (1<<26 - 1)
		e := c.CosetLeader(s)
		return c.Syndrome(e) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCosetLeaderIsMinimumWeight(t *testing.T) {
	// Within the bounded-distance radius the coset leader must recover any
	// injected error pattern exactly.
	c := NewReedMuller15()
	src := rng.New(3)
	for trial := 0; trial < 300; trial++ {
		var e uint64
		nErr := src.Intn(c.T() + 1) // 0..7 errors
		for _, pos := range src.Perm(32)[:nErr] {
			e |= 1 << uint(pos)
		}
		got := c.CosetLeader(c.Syndrome(e))
		if got != e {
			t.Fatalf("trial %d: coset leader %#x, injected %#x (weight %d)", trial, got, e, nErr)
		}
	}
}

func TestCosetLeaderWeightNeverExceedsCoveringRadius(t *testing.T) {
	// RM(1,5) has covering radius 14; no coset leader may be heavier.
	c := NewReedMuller15()
	src := rng.New(5)
	for trial := 0; trial < 500; trial++ {
		s := src.Word(26)
		if w := bits.OnesCount64(c.CosetLeader(s)); w > 14 {
			t.Fatalf("coset leader of weight %d exceeds covering radius 14", w)
		}
	}
}

func TestDecodeBounded(t *testing.T) {
	c := NewReedMuller15()
	var e uint64 = 0b10110001 // weight 4
	got, err := c.DecodeBounded(c.Syndrome(e), 7)
	if err != nil || got != e {
		t.Fatalf("bounded decode of weight-4 pattern: %#x, %v", got, err)
	}
	// A weight-9 pattern must be rejected with bound 7 (it is a coset
	// leader only if no lighter vector shares the syndrome, so craft one
	// far from any codeword: 9 ones within the low 16 bits keeps distance
	// from the weight-16 codewords at least... verify empirically instead).
	var heavy uint64 = 0b111111111
	leader := c.CosetLeader(c.Syndrome(heavy))
	if bits.OnesCount64(leader) > 7 {
		if _, err := c.DecodeBounded(c.Syndrome(heavy), 7); err == nil {
			t.Error("bounded decode accepted a pattern beyond the bound")
		}
	}
}

func TestNewFromGeneratorValidation(t *testing.T) {
	if _, err := NewFromGenerator(0, 0, []uint64{1}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewFromGenerator(65, 0, []uint64{1}); err == nil {
		t.Error("n=65 accepted")
	}
	if _, err := NewFromGenerator(8, 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewFromGenerator(8, 0, []uint64{0b11, 0b11}); err == nil {
		t.Error("dependent rows accepted")
	}
	if _, err := NewFromGenerator(4, 0, []uint64{0b10000}); err == nil {
		t.Error("row exceeding length accepted")
	}
	if _, err := NewFromGenerator(3, 0, []uint64{1, 2, 4, 7}); err == nil {
		t.Error("k>n accepted")
	}
}

func TestSmallCodeMinDistanceComputed(t *testing.T) {
	// [7,4] Hamming code: distance 3.
	gen := []uint64{
		0b0001011,
		0b0010101,
		0b0100110,
		0b1000111,
	}
	c, err := NewFromGenerator(7, 0, gen)
	if err != nil {
		t.Fatal(err)
	}
	if c.D != 3 {
		t.Errorf("Hamming(7,4) distance = %d, want 3", c.D)
	}
	if c.T() != 1 {
		t.Errorf("T = %d, want 1", c.T())
	}
	// Hamming codes are perfect: every single error is corrected.
	for pos := 0; pos < 7; pos++ {
		e := uint64(1) << uint(pos)
		if c.CosetLeader(c.Syndrome(e)) != e {
			t.Errorf("single error at %d not corrected", pos)
		}
	}
}

func TestEncode(t *testing.T) {
	c := NewReedMuller15()
	if c.Encode(0) != 0 {
		t.Error("Encode(0) != 0")
	}
	if c.Encode(1) != 0xFFFFFFFF {
		t.Errorf("Encode(1) = %#x, want all-ones", c.Encode(1))
	}
}

func TestBitsWordRoundTrip(t *testing.T) {
	f := func(v uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		w := v & maskN(n)
		return BitsToWord(WordToBits(w, n)) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsToWordPanicsOver64(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 65 bits")
		}
	}()
	BitsToWord(make([]uint8, 65))
}

func TestSketchRoundTripNoNoise(t *testing.T) {
	s := NewSketch(NewReedMuller15())
	src := rng.New(11)
	resp := make([]uint8, 32)
	for trial := 0; trial < 100; trial++ {
		src.Bits(resp)
		h, err := s.Generate(resp)
		if err != nil {
			t.Fatal(err)
		}
		rec, nErr, err := s.Recover(BitsToWord(resp), h)
		if err != nil || nErr != 0 {
			t.Fatalf("noiseless recover: nErr=%d err=%v", nErr, err)
		}
		if rec != BitsToWord(resp) {
			t.Fatal("noiseless recovery altered the response")
		}
	}
}

func TestSketchRecoversNoisyResponse(t *testing.T) {
	// The reverse-fuzzy-extractor flow: prover measures noisy y, verifier
	// holds reference ŷ; verifier must recover exactly y.
	s := NewSketch(NewReedMuller15())
	src := rng.New(13)
	ref := make([]uint8, 32)
	for trial := 0; trial < 200; trial++ {
		src.Bits(ref)
		noisy := append([]uint8(nil), ref...)
		nErr := src.Intn(8) // within the guaranteed radius
		for _, pos := range src.Perm(32)[:nErr] {
			noisy[pos] ^= 1
		}
		h, _ := s.Generate(noisy)
		rec, count, err := s.Recover(BitsToWord(ref), h)
		if err != nil {
			t.Fatalf("trial %d: recover failed: %v", trial, err)
		}
		if count != nErr {
			t.Fatalf("trial %d: corrected %d, injected %d", trial, count, nErr)
		}
		if rec != BitsToWord(noisy) {
			t.Fatalf("trial %d: recovered wrong response", trial)
		}
	}
}

func TestBoundedSketchRejectsHeavyNoise(t *testing.T) {
	s := NewBoundedSketch(NewReedMuller15(), 7)
	src := rng.New(17)
	ref := make([]uint8, 32)
	src.Bits(ref)
	noisy := append([]uint8(nil), ref...)
	for _, pos := range src.Perm(32)[:12] {
		noisy[pos] ^= 1
	}
	h, _ := s.Generate(noisy)
	if _, _, err := s.Recover(BitsToWord(ref), h); err == nil {
		// A 12-error pattern may occasionally alias to a light coset; but
		// with this fixed seed it should not. If it does, the test seed
		// must be changed rather than the assertion weakened.
		t.Error("bounded sketch recovered a 12-error pattern; expected rejection")
	}
}

func TestSketchLengthValidation(t *testing.T) {
	s := NewSketch(NewReedMuller15())
	if _, err := s.Generate(make([]uint8, 31)); err == nil {
		t.Error("short response accepted")
	}
	if _, _, err := s.Recover(1<<32, 0); err == nil {
		t.Error("reference wider than the code accepted")
	}
}

func TestHelperBits(t *testing.T) {
	s := NewSketch(NewReedMuller15())
	if s.HelperBits() != 26 {
		t.Errorf("HelperBits = %d, want 26", s.HelperBits())
	}
}

func TestAnalyticFNR(t *testing.T) {
	// t=7 at p=0.113 on 32 bits: a few percent. t=16: ~1e-7 (the paper's
	// reading). Check orders of magnitude and monotonicity.
	f7 := AnalyticFNR(32, 7, 0.113)
	f16 := AnalyticFNR(32, 16, 0.113)
	if f7 < 0.001 || f7 > 0.2 {
		t.Errorf("FNR(t=7) = %v, out of plausible band", f7)
	}
	if f16 > 1e-5 || f16 < 1e-9 {
		t.Errorf("FNR(t=16) = %v, want near the paper's 1.53e-7", f16)
	}
	if f16 >= f7 {
		t.Error("FNR must decrease with larger t")
	}
	if got := AnalyticFNR(32, 32, 0.5); got != 0 {
		t.Errorf("FNR with t=n should be 0, got %v", got)
	}
}

func TestAnalyticFNRMatchesPaperOrder(t *testing.T) {
	// The paper reports 1.53e-7; our binomial model with their parameters
	// (p = 3.62/32) should land within a factor ~30 of that.
	fnr := AnalyticFNR(32, 16, 3.62/32)
	ratio := fnr / 1.53e-7
	if ratio < 1.0/30 || ratio > 30 {
		t.Errorf("analytic FNR %v vs paper 1.53e-7 (ratio %v)", fnr, ratio)
	}
}

func TestCosetLeaderDeterministic(t *testing.T) {
	c := NewReedMuller15()
	src := rng.New(23)
	for i := 0; i < 50; i++ {
		s := src.Word(26)
		if c.CosetLeader(s) != c.CosetLeader(s) {
			t.Fatal("CosetLeader not deterministic")
		}
	}
}

func TestMLBeatsBoundedOnHeavyPatterns(t *testing.T) {
	// ML decoding recovers some >t patterns that bounded decoding rejects;
	// measured acceptance beyond t must be strictly positive for the
	// DESIGN.md ablation to be meaningful.
	c := NewReedMuller15()
	src := rng.New(29)
	recovered := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		var e uint64
		for _, pos := range src.Perm(32)[:9] { // weight 9 > t=7
			e |= 1 << uint(pos)
		}
		if c.CosetLeader(c.Syndrome(e)) == e {
			recovered++
		}
	}
	if recovered == 0 {
		t.Error("ML decoding never recovered a weight-9 pattern; expected some")
	}
	t.Logf("ML recovered %d/%d weight-9 patterns exactly", recovered, trials)
}

func TestFNRMonteCarloMatchesAnalytic(t *testing.T) {
	// Monte-Carlo FNR of the bounded sketch at p=0.15 vs the analytic tail.
	p := 0.15
	s := NewBoundedSketch(NewReedMuller15(), 7)
	src := rng.New(31)
	ref := make([]uint8, 32)
	src.Bits(ref)
	const trials = 20000
	fails := 0
	for i := 0; i < trials; i++ {
		noisy := append([]uint8(nil), ref...)
		for b := range noisy {
			if src.Float64() < p {
				noisy[b] ^= 1
			}
		}
		h, _ := s.Generate(noisy)
		rec, _, err := s.Recover(BitsToWord(ref), h)
		if err != nil {
			fails++
			continue
		}
		if rec != BitsToWord(noisy) {
			fails++
		}
	}
	got := float64(fails) / trials
	want := AnalyticFNR(32, 7, p)
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("Monte-Carlo FNR %v vs analytic %v", got, want)
	}
}

// enumSyndrome and enumCosetLeader are the row-by-row forms the byte
// tables replace, kept as the reference: one parity per row of H, and the
// particular solution from T and the pivots followed by the enumeration of
// the coset.
func enumSyndrome(c *Code, w uint64) uint64 {
	var s uint64
	for j, row := range c.h {
		s |= uint64(bits.OnesCount64(row&w)&1) << uint(j)
	}
	return s
}

func enumCosetLeader(c *Code, s uint64) uint64 {
	var v uint64
	for j := range c.tMat {
		if bits.OnesCount64(c.tMat[j]&s)&1 == 1 {
			v |= uint64(1) << uint(c.pivots[j])
		}
	}
	best, bestW := v, bits.OnesCount64(v)
	for _, cw := range c.codewords[1:] {
		e := v ^ cw
		if w := bits.OnesCount64(e); w < bestW || (w == bestW && e < best) {
			best, bestW = e, w
		}
	}
	return best
}

// TestTablesMatchEnumeration: the table-driven Syndrome and CosetLeader
// equal the row-by-row enumeration — on RM(1,4) for every word and every
// syndrome, on RM(1,5) for every error pattern of weight <= 3 and a seeded
// sample of 2^18 words and syndromes.
func TestTablesMatchEnumeration(t *testing.T) {
	check := func(c *Code, w, s uint64) {
		t.Helper()
		if got, want := c.Syndrome(w), enumSyndrome(c, w); got != want {
			t.Fatalf("(%d,%d) Syndrome(%#x) = %#x, enumeration %#x", c.N, c.K, w, got, want)
		}
		if got, want := c.CosetLeader(s), enumCosetLeader(c, s); got != want {
			t.Fatalf("(%d,%d) CosetLeader(%#x) = %#x, enumeration %#x", c.N, c.K, s, got, want)
		}
	}
	rm14 := NewReedMuller14()
	for w := uint64(0); w < 1<<16; w++ {
		check(rm14, w, w&(1<<11-1))
	}
	rm15 := NewReedMuller15()
	patterns := []uint64{0}
	for a := 0; a < 32; a++ {
		patterns = append(patterns, 1<<a)
		for b := a + 1; b < 32; b++ {
			patterns = append(patterns, 1<<a|1<<b)
			for c := b + 1; c < 32; c++ {
				patterns = append(patterns, 1<<a|1<<b|1<<c)
			}
		}
	}
	if len(patterns) != 1+32+496+4960 {
		t.Fatalf("%d patterns of weight <= 3, want 5489", len(patterns))
	}
	for _, e := range patterns {
		check(rm15, e, enumSyndrome(rm15, e))
		if rm15.CosetLeader(rm15.Syndrome(e)) != e {
			t.Fatalf("weight-%d pattern %#x is not its own coset leader", bits.OnesCount64(e), e)
		}
	}
	src := rng.New(0x7ab1e5)
	for i := 0; i < 1<<18; i++ {
		w := src.Uint64()
		check(rm15, w, w>>32&(1<<26-1))
	}
}

func TestForResponseWidthSharesOneCode(t *testing.T) {
	for _, width := range []int{16, 32} {
		a, err := ForResponseWidth(width)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := ForResponseWidth(width)
		if a != b || a.N != width {
			t.Errorf("width %d: codes %p and %p of length %d, want one shared code", width, a, b, a.N)
		}
	}
}
