package store

import (
	"errors"
	"sync"
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/crp"
	"pufatt/internal/rng"
)

// sameShardIDs returns n chip ids that all hash to one registry shard, so
// a per-shard LRU of one store evicts on every cross-device access.
func sameShardIDs(n int) []int {
	shardOf := func(id int) uint64 { return (uint64(uint(id)) * 0x9e3779b97f4a7c15) >> (64 - 4) }
	want := shardOf(1)
	out := []int{1}
	for id := 2; len(out) < n; id++ {
		if shardOf(id) == want {
			out = append(out, id)
		}
	}
	return out
}

// The eviction-vs-live-Handle hammer: with MaxOpen 1, every cross-device
// access closes the previously hot store, so handles constantly race their
// fetched *Store against eviction and claims constantly reload from disk.
// The property under test is the registry's reason to exist: an
// evicted-then-reloaded store never re-issues a seed some earlier claim
// (through any handle, before any eviction) already consumed — and the
// eviction race never surfaces as a spurious ErrClosed to the caller.
func TestRegistryEvictionNeverResurrectsSeeds(t *testing.T) {
	const (
		devices       = 3
		seedsPer      = 64
		workersPerDev = 4
	)
	ids := sameShardIDs(devices)
	root := t.TempDir()
	r, err := OpenRegistry(root, Options{MaxOpen: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	cfg := core.DefaultConfig()
	cfg.Width = 16
	design := core.MustNewDesign(cfg)
	seeds := make([]uint64, seedsPer)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	handles := make(map[int]*Handle, devices)
	for _, id := range ids {
		dev := core.MustNewDevice(design, rng.New(uint64(id)), id)
		if _, err := r.Enroll(dev, seeds, 0); err != nil {
			t.Fatal(err)
		}
		h, err := r.Handle(id)
		if err != nil {
			t.Fatal(err)
		}
		handles[id] = h
	}

	var (
		mu      sync.Mutex
		claimed = make(map[int][]uint64, devices)
	)
	var wg sync.WaitGroup
	errs := make(chan error, devices*workersPerDev)
	for _, id := range ids {
		for w := 0; w < workersPerDev; w++ {
			wg.Add(1)
			go func(id, w int) {
				defer wg.Done()
				h := handles[id]
				other := handles[ids[(indexOf(ids, id)+1)%len(ids)]]
				for {
					seed, _, err := h.NextUnusedWithEpoch()
					if errors.Is(err, crp.ErrExhausted) {
						return
					}
					if err != nil {
						errs <- err
						return
					}
					mu.Lock()
					claimed[id] = append(claimed[id], seed)
					mu.Unlock()
					// Touch a sibling device between claims: with a
					// per-shard LRU of one this evicts our store, so the
					// next claim must reload and still honour this one.
					if _, err := other.ReferenceResponse(seed, w%8); err != nil {
						// The sibling may not have claimed this seed yet —
						// that refusal is fine; an ErrClosed leak is not.
						if errors.Is(err, ErrClosed) {
							errs <- err
							return
						}
					}
				}
			}(id, w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("hammer worker: %v", err)
	}

	for _, id := range ids {
		got := claimed[id]
		if len(got) != seedsPer {
			t.Fatalf("device %d: %d seeds claimed, want %d", id, len(got), seedsPer)
		}
		seen := make(map[uint64]bool, len(got))
		for _, s := range got {
			if seen[s] {
				t.Fatalf("device %d: seed %d claimed twice across eviction/reload", id, s)
			}
			if s < 1 || s > seedsPer {
				t.Fatalf("device %d: claimed unenrolled seed %d", id, s)
			}
			seen[s] = true
		}
		if rem := handles[id].Remaining(); rem != 0 {
			t.Fatalf("device %d: %d seeds remaining after exhaustion", id, rem)
		}
	}
}

func indexOf(ids []int, id int) int {
	for i, v := range ids {
		if v == id {
			return i
		}
	}
	return -1
}
