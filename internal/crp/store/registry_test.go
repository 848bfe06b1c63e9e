package store

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/crp"
	"pufatt/internal/rng"
)

func testFleet(t *testing.T, r *Registry, ids ...int) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Width = 16
	design := core.MustNewDesign(cfg)
	master := rng.New(9)
	for _, id := range ids {
		dev := core.MustNewDevice(design, master, id)
		if _, err := r.Enroll(dev, []uint64{1, 2, 3, 4}, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegistryEnrollAndLookup(t *testing.T) {
	r, err := OpenRegistry(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	testFleet(t, r, 0, 1, 2)

	ids, err := r.Devices()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Fatalf("Devices = %v", ids)
	}
	st, err := r.Device(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChipID() != 1 || st.Len() != 4 {
		t.Fatalf("device 1: chip=%d len=%d", st.ChipID(), st.Len())
	}
	if _, err := r.Device(99); err == nil {
		t.Fatal("unknown device opened")
	}
}

func TestRegistryRefusesDoubleEnroll(t *testing.T) {
	r, err := OpenRegistry(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	testFleet(t, r, 5)
	cfg := core.DefaultConfig()
	cfg.Width = 16
	dev := core.MustNewDevice(core.MustNewDesign(cfg), rng.New(9), 5)
	if _, err := r.Enroll(dev, []uint64{1}, 0); err == nil {
		t.Fatal("double enrollment accepted")
	}
}

func TestRegistrySurvivesRestart(t *testing.T) {
	root := t.TempDir()
	r, err := OpenRegistry(root, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	testFleet(t, r, 0, 1)
	h, err := r.Handle(1)
	if err != nil {
		t.Fatal(err)
	}
	seed, _, err := h.NextUnusedWithEpoch()
	if err != nil {
		t.Fatal(err)
	}
	r.Close() // the "crash"

	r2, err := OpenRegistry(root, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	h2, err := r2.Handle(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Claim(seed); !errors.Is(err, crp.ErrSeedUsed) {
		t.Fatalf("pre-crash claim forgotten: got %v, want ErrSeedUsed", err)
	}
	if h2.Remaining() != 3 {
		t.Fatalf("Remaining = %d, want 3", h2.Remaining())
	}
	// Device 0 was untouched pre-crash.
	h0, err := r2.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	if h0.Remaining() != 4 {
		t.Fatalf("device 0 Remaining = %d, want 4", h0.Remaining())
	}
}

func TestRegistryLRUEvictionTransparent(t *testing.T) {
	opts := testOptions()
	opts.MaxOpen = registryShards // one resident store per shard
	r, err := OpenRegistry(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Enough devices that some shard must hold two and evict one.
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	testFleet(t, r, ids...)

	resident := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		resident += len(sh.open)
		if len(sh.open) > 1 {
			t.Errorf("shard %d holds %d stores, bound is 1", i, len(sh.open))
		}
		sh.mu.Unlock()
	}
	if resident > registryShards {
		t.Fatalf("%d resident stores, bound %d", resident, registryShards)
	}

	// Handles keep working through eviction: claim one seed on every
	// device, which churns the LRU the whole way.
	handles := make([]*Handle, len(ids))
	for i, id := range ids {
		h, err := r.Handle(id)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for _, h := range handles {
		seed, _, err := h.NextUnusedWithEpoch()
		if err != nil {
			t.Fatalf("device %d through eviction churn: %v", h.ChipID(), err)
		}
		ref, err := h.ReferenceResponse(seed, 0)
		if err != nil {
			t.Fatalf("device %d reference: %v", h.ChipID(), err)
		}
		if len(ref) != h.ResponseBits() {
			t.Fatalf("device %d: ref width %d", h.ChipID(), len(ref))
		}
	}
	for _, h := range handles {
		if h.Remaining() != 3 {
			t.Fatalf("device %d Remaining = %d, want 3", h.ChipID(), h.Remaining())
		}
	}
}

func TestRegistryHandleIsReferenceSource(t *testing.T) {
	r, err := OpenRegistry(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cfg := core.DefaultConfig()
	cfg.Width = 16
	dev := core.MustNewDevice(core.MustNewDesign(cfg), rng.New(9), 3)
	if _, err := r.Enroll(dev, []uint64{11, 22}, 0); err != nil {
		t.Fatal(err)
	}

	src, err := r.Source(3)
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.NewVerifierPipelineFrom(src)
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.Handle(3)
	if err != nil {
		t.Fatal(err)
	}
	seed, _, err := h.NextUnusedWithEpoch()
	if err != nil {
		t.Fatal(err)
	}
	p := core.MustNewPipeline(dev)
	out, err := p.Query(seed)
	if err != nil {
		t.Fatal(err)
	}
	z, err := v.Recover(seed, out.Helpers)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(z, out.Z) {
		t.Fatal("registry-backed recovery disagrees with prover z")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	opts := testOptions()
	opts.MaxOpen = registryShards // force eviction pressure during the race
	r, err := OpenRegistry(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	testFleet(t, r, ids...)

	var claimed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, id := range ids {
				h, err := r.Handle(id)
				if err != nil {
					t.Errorf("worker %d handle %d: %v", w, id, err)
					return
				}
				switch _, _, err := h.NextUnusedWithEpoch(); {
				case err == nil:
					claimed.Add(1)
				case !errors.Is(err, crp.ErrExhausted):
					t.Errorf("worker %d device %d: %v", w, id, err)
				}
				h.Remaining()
				_ = i
			}
		}(w)
	}
	wg.Wait()
	// 12 devices × 4 seeds: every seed claimed exactly once across workers.
	if claimed.Load() != int64(len(ids)*4) {
		t.Fatalf("claimed %d seeds, want %d", claimed.Load(), len(ids)*4)
	}
}

func TestRegistryCompactAll(t *testing.T) {
	r, err := OpenRegistry(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	testFleet(t, r, 0, 1)
	for _, id := range []int{0, 1} {
		h, err := r.Handle(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.NextUnusedWithEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.CompactAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1} {
		st, err := r.Device(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.WALRecords() != 0 {
			t.Fatalf("device %d WALRecords after CompactAll = %d", id, st.WALRecords())
		}
	}
}
