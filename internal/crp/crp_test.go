package crp

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/rng"
	"pufatt/internal/stats"
)

func testDevice(t *testing.T) *core.Device {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Width = 16
	return core.MustNewDevice(core.MustNewDesign(cfg), rng.New(1), 0)
}

func TestEnrollAndVerifyFlow(t *testing.T) {
	dev := testDevice(t)
	seeds := []uint64{10, 20, 30}
	db, err := Enroll(dev, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 || db.Remaining() != 3 {
		t.Fatalf("Len=%d Remaining=%d", db.Len(), db.Remaining())
	}
	// Full reverse-FE verification through the database source.
	p := core.MustNewPipeline(dev)
	v, err := core.NewVerifierPipelineFrom(db)
	if err != nil {
		t.Fatal(err)
	}
	seed, _, err := db.NextUnusedWithEpoch()
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Query(seed)
	if err != nil {
		t.Fatal(err)
	}
	z, err := v.Recover(seed, out.Helpers)
	if err != nil {
		t.Fatal(err)
	}
	if stats.HammingDistance(z, out.Z) != 0 {
		t.Error("database-backed recovery disagrees with prover z")
	}
	if db.Remaining() != 2 {
		t.Errorf("Remaining after one authentication = %d", db.Remaining())
	}
}

func TestEnrollRejectsDuplicateSeeds(t *testing.T) {
	dev := testDevice(t)
	if _, err := Enroll(dev, []uint64{5, 5}); err == nil {
		t.Error("duplicate seeds accepted")
	}
}

func TestReplayProtection(t *testing.T) {
	dev := testDevice(t)
	db, _ := Enroll(dev, []uint64{1})
	if err := db.Claim(1); err != nil {
		t.Fatal(err)
	}
	if err := db.Claim(1); !errors.Is(err, ErrSeedUsed) {
		t.Errorf("second claim: %v, want ErrSeedUsed", err)
	}
}

func TestUnknownSeed(t *testing.T) {
	dev := testDevice(t)
	db, _ := Enroll(dev, []uint64{1})
	if err := db.Claim(99); !errors.Is(err, ErrUnknownSeed) {
		t.Errorf("unknown claim: %v", err)
	}
	if _, err := db.ReferenceResponse(99, 0); !errors.Is(err, ErrUnknownSeed) {
		t.Errorf("unknown lookup: %v", err)
	}
}

func TestReferenceRequiresClaim(t *testing.T) {
	dev := testDevice(t)
	db, _ := Enroll(dev, []uint64{1})
	if _, err := db.ReferenceResponse(1, 0); err == nil {
		t.Error("unclaimed reference lookup accepted")
	}
	db.Claim(1)
	if _, err := db.ReferenceResponse(1, 0); err != nil {
		t.Errorf("claimed lookup failed: %v", err)
	}
	if _, err := db.ReferenceResponse(1, 8); err == nil {
		t.Error("out-of-range reference index accepted")
	}
}

func TestExhaustion(t *testing.T) {
	dev := testDevice(t)
	db, _ := Enroll(dev, []uint64{1, 2})
	for i := 0; i < 2; i++ {
		if _, _, err := db.NextUnusedWithEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.NextUnusedWithEpoch(); !errors.Is(err, ErrExhausted) {
		t.Errorf("exhausted NextUnused: %v", err)
	}
	if db.Remaining() != 0 {
		t.Errorf("Remaining = %d", db.Remaining())
	}
}

func TestStorageScalesLinearly(t *testing.T) {
	dev := testDevice(t)
	seeds := make([]uint64, 50)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	db50, _ := Enroll(dev, seeds)
	db10, _ := Enroll(dev, seeds[:10])
	if db50.StorageBytes() != 5*db10.StorageBytes() {
		t.Errorf("storage not linear: %d vs %d", db50.StorageBytes(), db10.StorageBytes())
	}
	// 16-bit responses: 8 + 8*2 = 24 bytes per seed.
	if got := db10.StorageBytes(); got != 240 {
		t.Errorf("StorageBytes = %d, want 240", got)
	}
}

// TestConcurrentClaims hammers Claim/NextUnused/Remaining/ReferenceResponse
// from parallel goroutines — the fleet-sweep access pattern. Run under
// -race (scripts/verify.sh does); the invariant checked here is that every
// seed is granted to exactly one claimer and the bookkeeping stays exact.
func TestConcurrentClaims(t *testing.T) {
	dev := testDevice(t)
	const n = 96
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	db, err := Enroll(dev, seeds)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var ok, replays atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, seed := range seeds {
				// Interleave the three entry points: direct claims (all
				// workers racing on the same seed), cursor claims, and the
				// read-side paths.
				switch i % 3 {
				case 0:
					switch err := db.Claim(seed); {
					case err == nil:
						ok.Add(1)
					case errors.Is(err, ErrSeedUsed):
						replays.Add(1)
					default:
						t.Errorf("Claim(%d): %v", seed, err)
					}
				case 1:
					if s, _, err := db.NextUnusedWithEpoch(); err == nil {
						ok.Add(1)
						if _, err := db.ReferenceResponse(s, w%8); err != nil {
							t.Errorf("ReferenceResponse(%d): %v", s, err)
						}
					} else if !errors.Is(err, ErrExhausted) {
						t.Errorf("NextUnused: %v", err)
					}
				default:
					if r := db.Remaining(); r < 0 || r > n {
						t.Errorf("Remaining = %d out of range", r)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := ok.Load(); got != n {
		t.Errorf("successful claims = %d, want exactly %d", got, n)
	}
	if db.Remaining() != 0 {
		t.Errorf("Remaining = %d after exhausting claims", db.Remaining())
	}
	if _, _, err := db.NextUnusedWithEpoch(); !errors.Is(err, ErrExhausted) {
		t.Errorf("NextUnused after exhaustion: %v", err)
	}
}

// TestNextUnusedCountsNoSpuriousReplays pins the telemetry contract: seeds
// NextUnused skips because a direct Claim already consumed them are
// bookkeeping, not replay attempts, and must not inflate the
// crp_claims_total{result="replay"} counter.
func TestNextUnusedCountsNoSpuriousReplays(t *testing.T) {
	dev := testDevice(t)
	db, err := Enroll(dev, []uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Consume the first three seeds out of band, then check a real replay
	// still counts.
	for _, s := range []uint64{1, 2, 3} {
		if err := db.Claim(s); err != nil {
			t.Fatal(err)
		}
	}
	before := claims.With("replay").Value()
	seed, _, err := db.NextUnusedWithEpoch() // skips 1,2,3; claims 4
	if err != nil || seed != 4 {
		t.Fatalf("NextUnused = %d, %v; want 4", seed, err)
	}
	if got := claims.With("replay").Value(); got != before {
		t.Errorf("skipping used seeds counted %d spurious crp_claims_total{result=replay}", got-before)
	}
	if err := db.Claim(4); !errors.Is(err, ErrSeedUsed) {
		t.Fatalf("re-claim: %v", err)
	}
	if got := claims.With("replay").Value(); got != before+1 {
		t.Errorf("real replay attempt counted %d, want exactly 1", got-before)
	}
}

// TestRemainingMatchesScan asserts the O(1) unused counter against a full
// used-set scan through an interleaved claim sequence.
func TestRemainingMatchesScan(t *testing.T) {
	dev := testDevice(t)
	seeds := make([]uint64, 20)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	db, err := Enroll(dev, seeds)
	if err != nil {
		t.Fatal(err)
	}
	scan := func() int {
		db.mu.Lock()
		defer db.mu.Unlock()
		n := 0
		for _, used := range db.led.used {
			if !used {
				n++
			}
		}
		return n
	}
	check := func(step string) {
		t.Helper()
		if got, want := db.Remaining(), scan(); got != want {
			t.Errorf("%s: Remaining = %d, scan = %d", step, got, want)
		}
	}
	check("fresh")
	db.Claim(7)
	check("after direct claim")
	db.NextUnusedWithEpoch() // claims 1
	db.NextUnusedWithEpoch() // claims 2
	check("after cursor claims")
	db.Claim(7) // replay: must not change the count
	db.Claim(99)
	check("after failed claims")
	for range seeds {
		db.NextUnusedWithEpoch()
	}
	check("exhausted")
	if db.Remaining() != 0 {
		t.Errorf("Remaining = %d after claiming everything", db.Remaining())
	}
}

func TestReferencesMatchEmulator(t *testing.T) {
	dev := testDevice(t)
	db, _ := Enroll(dev, []uint64{7})
	db.Claim(7)
	em := dev.Emulator()
	for j := 0; j < 8; j++ {
		fromDB, err := db.ReferenceResponse(7, j)
		if err != nil {
			t.Fatal(err)
		}
		fromEm, _ := em.ReferenceResponse(7, j)
		if stats.HammingDistance(fromDB, fromEm) != 0 {
			t.Errorf("reference %d: database and emulator disagree", j)
		}
	}
}
