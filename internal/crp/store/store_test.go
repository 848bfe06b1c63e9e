package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/crp"
	"pufatt/internal/obfuscate"
	"pufatt/internal/rng"
)

func testDevice(t *testing.T) *core.Device {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Width = 16
	return core.MustNewDevice(core.MustNewDesign(cfg), rng.New(1), 7)
}

func testOptions() Options {
	// Tests exercise crash *consistency*, which NoSync preserves; skipping
	// fsync keeps the suite fast on slow filesystems.
	return Options{NoSync: true}
}

func enrollN(t *testing.T, dir string, n int) *Store {
	t.Helper()
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	st, err := Enroll(dir, testDevice(t), seeds, 0, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestEnrollMatchesInMemoryDatabase(t *testing.T) {
	dev := testDevice(t)
	seeds := []uint64{3, 14, 159, 2653}
	db, err := crp.Enroll(dev, seeds)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Enroll(t.TempDir(), dev, seeds, 4, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.ChipID() != dev.ChipID() || st.Len() != db.Len() ||
		st.ResponseBits() != db.ResponseBits() {
		t.Fatalf("shape mismatch: chip=%d len=%d bits=%d", st.ChipID(), st.Len(), st.ResponseBits())
	}
	for _, seed := range seeds {
		if err := db.Claim(seed); err != nil {
			t.Fatal(err)
		}
		if err := st.Claim(seed); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < obfuscate.ResponsesPerOutput; j++ {
			want, err := db.ReferenceResponse(seed, j)
			if err != nil {
				t.Fatal(err)
			}
			got, err := st.ReferenceResponse(seed, j)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d ref %d: durable enrollment disagrees with in-memory", seed, j)
			}
		}
	}
}

func TestEnrollDeterministicAcrossWorkerCounts(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7}
	st1, err := Enroll(t.TempDir(), testDevice(t), seeds, 1, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st1.Close()
	st8, err := Enroll(t.TempDir(), testDevice(t), seeds, 8, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st8.Close()
	if !bytes.Equal(st1.enr.Refs(), st8.enr.Refs()) {
		t.Fatal("enrollment depends on worker count")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := &snapshot{
		chipID:  42,
		bits:    9,
		refsPer: 3,
		seeds:   []uint64{7, 11, 13, 17},
		used:    []bool{true, false, false, true},
		flat:    make([]uint8, 4*3*9),
	}
	for i := range s.flat {
		s.flat[i] = uint8(i % 2)
	}
	var buf bytes.Buffer
	if err := s.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.chipID != s.chipID || got.bits != s.bits || got.refsPer != s.refsPer {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i, seed := range s.seeds {
		if got.seeds[i] != seed || got.used[i] != s.used[i] {
			t.Fatalf("entry %d round-trip mismatch", i)
		}
	}
	if !bytes.Equal(got.flat, s.flat) {
		t.Fatal("reference matrix round-trip mismatch")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	s := &snapshot{chipID: 1, bits: 4, refsPer: 2, seeds: []uint64{9},
		used: []bool{false}, flat: []uint8{1, 0, 1, 0, 0, 1, 0, 1}}
	var buf bytes.Buffer
	if err := s.writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one payload byte: the CRC must catch it.
	bad := append([]byte(nil), good...)
	bad[snapHeaderSize+2] ^= 0x40
	if _, err := readSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapChecksum) {
		t.Fatalf("corrupted payload: got %v, want ErrSnapChecksum", err)
	}

	// Wrong magic is a different failure: not our file at all.
	bad = append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := readSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("bad magic: got %v, want ErrNotSnapshot", err)
	}

	// Truncation must error, not yield a partial enrollment.
	if _, err := readSnapshot(bytes.NewReader(good[:len(good)-6])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestClaimSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 5)
	if err := st.Claim(2); err != nil {
		t.Fatal(err)
	}
	seed, _, err := st.NextUnusedWithEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if seed != 1 {
		t.Fatalf("NextUnused = %d, want 1", seed)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Claim(2); !errors.Is(err, crp.ErrSeedUsed) {
		t.Fatalf("claimed seed after reopen: got %v, want ErrSeedUsed", err)
	}
	if err := re.Claim(1); !errors.Is(err, crp.ErrSeedUsed) {
		t.Fatalf("NextUnused-claimed seed after reopen: got %v, want ErrSeedUsed", err)
	}
	if got := re.Remaining(); got != 3 {
		t.Fatalf("Remaining after reopen = %d, want 3", got)
	}
	if seed, _, err := re.NextUnusedWithEpoch(); err != nil || seed != 3 {
		t.Fatalf("NextUnused after reopen = %d, %v; want 3", seed, err)
	}
}

func TestClaimSurvivesCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 6)
	for _, seed := range []uint64{1, 4} {
		if err := st.Claim(seed); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.WALRecords() != 0 {
		t.Fatalf("WALRecords after compact = %d", st.WALRecords())
	}
	// One more claim after compaction: lives only in the fresh WAL.
	if err := st.Claim(5); err != nil {
		t.Fatal(err)
	}
	st.Close()

	re, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, seed := range []uint64{1, 4, 5} {
		if err := re.Claim(seed); !errors.Is(err, crp.ErrSeedUsed) {
			t.Fatalf("seed %d after compact+reopen: got %v, want ErrSeedUsed", seed, err)
		}
	}
	if got := re.Remaining(); got != 3 {
		t.Fatalf("Remaining = %d, want 3", got)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.CompactEvery = 3
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7}
	st, err := Enroll(dir, testDevice(t), seeds, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 4; i++ {
		if _, _, err := st.NextUnusedWithEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	// The third claim crossed the threshold and folded; only the fourth
	// should remain in the log.
	if got := st.WALRecords(); got != 1 {
		t.Fatalf("WALRecords after auto-compaction = %d, want 1", got)
	}
}

func TestTornWALTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 4)
	if err := st.Claim(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Claim(2); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Simulate a crash mid-append: chop the last record short.
	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	torn := walTornTails.Value()
	re, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	defer re.Close()
	if got := walTornTails.Value() - torn; got != 1 {
		t.Fatalf("crpstore_wal_torn_tails_total delta = %d, want 1", got)
	}
	// Seed 1's full record survives; seed 2's torn record is dropped — it
	// was never acknowledged, so it must be claimable again.
	if err := re.Claim(1); !errors.Is(err, crp.ErrSeedUsed) {
		t.Fatalf("seed 1: got %v, want ErrSeedUsed", err)
	}
	if err := re.Claim(2); err != nil {
		t.Fatalf("torn-tail seed 2 should be unclaimed: %v", err)
	}
	// The reopened WAL must have healed: a further reopen sees a clean log.
	re.Close()
	if re2, err := Open(dir, testOptions()); err != nil {
		t.Fatalf("reopen after heal: %v", err)
	} else {
		re2.Close()
	}
	if got := walTornTails.Value() - torn; got != 1 {
		t.Fatalf("healed WAL counted as torn again: delta = %d, want 1", got)
	}
}

func TestInteriorWALCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 4)
	for _, seed := range []uint64{1, 2, 3} {
		if err := st.Claim(seed); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[crp.FrameSize+4] ^= 0xff // corrupt the middle record's seed
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOptions()); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("interior corruption: got %v, want ErrWALCorrupt", err)
	}
}

func TestWALRejectsUnenrolledSeed(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 2)
	st.Close()
	// Forge a valid-looking claim for a seed that was never enrolled.
	w, _, err := openWAL(filepath.Join(dir, walFile), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(crp.Frame{Seed: 999}); err != nil {
		t.Fatal(err)
	}
	w.close()
	if _, err := Open(dir, testOptions()); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("unenrolled WAL seed: got %v, want ErrWALCorrupt", err)
	}
}

func TestCreateRefusesReEnrollment(t *testing.T) {
	dir := t.TempDir()
	st := enrollN(t, dir, 2)
	st.Close()
	if _, err := Enroll(dir, testDevice(t), []uint64{8, 9}, 0, testOptions()); err == nil {
		t.Fatal("re-enrollment over an existing store accepted")
	}
}

func TestUnclaimedReferenceRefused(t *testing.T) {
	st := enrollN(t, t.TempDir(), 2)
	defer st.Close()
	if _, err := st.ReferenceResponse(1, 0); err == nil {
		t.Fatal("reference served for unclaimed seed")
	}
	if _, err := st.ReferenceResponse(99, 0); !errors.Is(err, crp.ErrUnknownSeed) {
		t.Fatalf("unknown seed: got %v, want ErrUnknownSeed", err)
	}
}

// TestRecoveryPropertyRandomClaims drives random interleavings of Claim,
// NextUnused, Compact, and crash/reopen against an in-memory mirror: at
// every point the recovered durable state must equal the mirror exactly.
func TestRecoveryPropertyRandomClaims(t *testing.T) {
	const n = 32
	rnd := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		dir := t.TempDir()
		st := enrollN(t, dir, n)
		mirror := make(map[uint64]bool, n)

		for op := 0; op < 120; op++ {
			switch rnd.Intn(10) {
			case 0, 1, 2, 3: // direct claim of a random seed
				seed := uint64(rnd.Intn(n+4) + 1) // sometimes unknown
				err := st.Claim(seed)
				switch {
				case seed > n:
					if !errors.Is(err, crp.ErrUnknownSeed) {
						t.Fatalf("trial %d op %d: unknown seed: %v", trial, op, err)
					}
				case mirror[seed]:
					if !errors.Is(err, crp.ErrSeedUsed) {
						t.Fatalf("trial %d op %d: replay of %d: %v", trial, op, seed, err)
					}
				default:
					if err != nil {
						t.Fatalf("trial %d op %d: claim %d: %v", trial, op, seed, err)
					}
					mirror[seed] = true
				}
			case 4, 5, 6: // sequential claim
				seed, _, err := st.NextUnusedWithEpoch()
				if len(mirror) == n {
					if !errors.Is(err, crp.ErrExhausted) {
						t.Fatalf("trial %d op %d: want exhausted, got %v", trial, op, err)
					}
				} else if err != nil {
					t.Fatalf("trial %d op %d: NextUnused: %v", trial, op, err)
				} else if mirror[seed] {
					t.Fatalf("trial %d op %d: NextUnused returned used seed %d", trial, op, seed)
				} else {
					mirror[seed] = true
				}
			case 7: // compact
				if err := st.Compact(); err != nil {
					t.Fatalf("trial %d op %d: compact: %v", trial, op, err)
				}
			default: // crash and recover
				st.Close()
				var err error
				st, err = Open(dir, testOptions())
				if err != nil {
					t.Fatalf("trial %d op %d: reopen: %v", trial, op, err)
				}
			}
		}

		// Final crash, then compare recovered state with the mirror.
		st.Close()
		re, err := Open(dir, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= n; seed++ {
			err := re.Claim(seed)
			if mirror[seed] && !errors.Is(err, crp.ErrSeedUsed) {
				t.Fatalf("trial %d: seed %d claimed pre-crash but recovered unclaimed (%v)", trial, seed, err)
			}
			if !mirror[seed] && err != nil {
				t.Fatalf("trial %d: seed %d unclaimed pre-crash but recovery says %v", trial, seed, err)
			}
		}
		re.Close()
	}
}

func TestStoreConcurrentClaims(t *testing.T) {
	const n, workers = 96, 8
	st := enrollN(t, t.TempDir(), n)
	defer st.Close()

	var ok, replays atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if w%2 == 0 {
					switch _, _, err := st.NextUnusedWithEpoch(); {
					case err == nil:
						ok.Add(1)
					case !errors.Is(err, crp.ErrExhausted):
						t.Errorf("NextUnused: %v", err)
					}
				} else {
					switch err := st.Claim(uint64(i + 1)); {
					case err == nil:
						ok.Add(1)
					case errors.Is(err, crp.ErrSeedUsed):
						replays.Add(1)
					default:
						t.Errorf("Claim: %v", err)
					}
				}
				st.Remaining()
			}
		}(w)
	}
	wg.Wait()
	if ok.Load() != n {
		t.Fatalf("%d successful claims for %d seeds (replays=%d)", ok.Load(), n, replays.Load())
	}
	if st.Remaining() != 0 {
		t.Fatalf("Remaining = %d after full consumption", st.Remaining())
	}
	// All n durable: a reopen must reject every seed.
	st.Close()
	re, err := Open(st.Dir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Remaining() != 0 {
		t.Fatalf("Remaining after reopen = %d", re.Remaining())
	}
}

func TestVerifierPipelineFromStore(t *testing.T) {
	dev := testDevice(t)
	seeds := []uint64{100, 200, 300}
	st, err := Enroll(t.TempDir(), dev, seeds, 0, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	p := core.MustNewPipeline(dev)
	v, err := core.NewVerifierPipelineFrom(st)
	if err != nil {
		t.Fatal(err)
	}
	seed, _, err := st.NextUnusedWithEpoch()
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
	if !bytes.Equal(z, out.Z) {
		t.Fatal("store-backed recovery disagrees with prover z")
	}
}
