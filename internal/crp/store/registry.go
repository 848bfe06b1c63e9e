package store

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pufatt/internal/core"
)

// Registry scales the durable store across a fleet: one device directory
// per chip under a common root, opened lazily on first use and cached in a
// bounded LRU of hot stores. Device lookups are sharded — each shard owns
// an RWMutex over its slice of the id space — so a sweep claiming seeds
// for thousands of devices concurrently contends only within a shard.
type Registry struct {
	root   string
	opts   Options
	shards [registryShards]regShard
}

const registryShards = 16

// DefaultMaxOpen bounds the registry's resident stores when Options.MaxOpen
// is zero.
const DefaultMaxOpen = 256

type regShard struct {
	mu    sync.RWMutex
	clock atomic.Uint64 // LRU timestamps; monotonic per shard
	open  map[int]*residentStore
}

type residentStore struct {
	st       *Store
	lastUsed atomic.Uint64
}

// OpenRegistry opens (creating if absent) a store registry rooted at dir.
// Device snapshots are not loaded here — each loads on first use.
func OpenRegistry(root string, opts Options) (*Registry, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("crpstore: creating registry root: %w", err)
	}
	r := &Registry{root: root, opts: opts}
	for i := range r.shards {
		r.shards[i].open = make(map[int]*residentStore)
	}
	return r, nil
}

// Root returns the registry's root directory.
func (r *Registry) Root() string { return r.root }

// deviceDir returns the directory holding device id's snapshot and WAL.
func (r *Registry) deviceDir(id int) string {
	return fmt.Sprintf("%s%cdevice-%d", r.root, os.PathSeparator, id)
}

func (r *Registry) shard(id int) *regShard {
	// Fibonacci hashing spreads adjacent chip ids across shards.
	return &r.shards[(uint64(uint(id))*0x9e3779b97f4a7c15)>>(64-4)]
}

func (r *Registry) maxPerShard() int {
	max := r.opts.MaxOpen
	if max <= 0 {
		max = DefaultMaxOpen
	}
	per := max / registryShards
	if per < 1 {
		per = 1
	}
	return per
}

// Device returns device id's open store, loading its snapshot (and
// replaying its WAL) on first use. The returned handle may later be closed
// by LRU eviction; callers that hold stores across long stretches should
// use Handle, which re-fetches transparently.
func (r *Registry) Device(id int) (*Store, error) {
	sh := r.shard(id)
	sh.mu.RLock()
	e := sh.open[id]
	if e != nil {
		e.lastUsed.Store(sh.clock.Add(1))
	}
	sh.mu.RUnlock()
	if e != nil {
		return e.st, nil
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.open[id]; e != nil { // lost the load race: reuse the winner's
		e.lastUsed.Store(sh.clock.Add(1))
		return e.st, nil
	}
	st, err := Open(r.deviceDir(id), r.opts)
	if err != nil {
		return nil, err
	}
	r.insertLocked(sh, id, st)
	return st, nil
}

// insertLocked caches an open store in the shard, evicting the
// least-recently-used resident beyond the per-shard bound. Evicted stores
// are closed — their state is durable — and reload on next use.
func (r *Registry) insertLocked(sh *regShard, id int, st *Store) {
	e := &residentStore{st: st}
	e.lastUsed.Store(sh.clock.Add(1))
	sh.open[id] = e
	for len(sh.open) > r.maxPerShard() {
		victim, oldest := -1, uint64(0)
		for vid, ve := range sh.open {
			if vid == id {
				continue
			}
			if lu := ve.lastUsed.Load(); victim < 0 || lu < oldest {
				victim, oldest = vid, lu
			}
		}
		if victim < 0 {
			return
		}
		_ = sh.open[victim].st.Close()
		delete(sh.open, victim)
	}
}

// Enroll measures and installs a durable enrollment for the device under
// the registry root (parallel across workers; ≤0 = GOMAXPROCS) and caches
// the open store. It fails if the device already has an enrollment.
func (r *Registry) Enroll(dev *core.Device, seeds []uint64, workers int) (*Store, error) {
	id := dev.ChipID()
	sh := r.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, open := sh.open[id]; open {
		return nil, fmt.Errorf("crpstore: device %d already enrolled", id)
	}
	st, err := Enroll(r.deviceDir(id), dev, seeds, workers, r.opts)
	if err != nil {
		return nil, err
	}
	r.insertLocked(sh, id, st)
	return st, nil
}

// Handle is an eviction-transparent view of one device's store: every
// operation routes through the registry, reloading the snapshot if the LRU
// closed it in the meantime. Handle implements core.ReferenceSource and
// the attestation layer's seed-budget surface.
type Handle struct {
	r    *Registry
	id   int
	bits int
}

// Handle returns an eviction-transparent handle for device id (loading the
// store once to validate it exists and learn its width).
func (r *Registry) Handle(id int) (*Handle, error) {
	st, err := r.Device(id)
	if err != nil {
		return nil, err
	}
	return &Handle{r: r, id: id, bits: st.ResponseBits()}, nil
}

// Source is Handle restated as the verifier pipeline's dependency.
func (r *Registry) Source(id int) (core.ReferenceSource, error) { return r.Handle(id) }

// ChipID returns the handle's device id.
func (h *Handle) ChipID() int { return h.id }

// ResponseBits implements core.ReferenceSource.
func (h *Handle) ResponseBits() int { return h.bits }

// withStoreRetries bounds how often withStore re-fetches after losing the
// fetch-to-use race against LRU eviction. One retry is enough when
// evictions are rare, but a hot registry sized below its working set (a
// per-shard LRU of 1 under a fleet sweep) can evict the same store several
// times between a handle's fetch and its claim; the bound keeps a genuine
// close loop from spinning forever while making spurious ErrClosed leaks
// to callers practically impossible.
const withStoreRetries = 16

// withStore runs op against the live store, re-fetching (bounded) when it
// raced an LRU eviction between fetch and use.
func (h *Handle) withStore(op func(*Store) error) error {
	for attempt := 0; ; attempt++ {
		st, err := h.r.Device(h.id)
		if err != nil {
			return err
		}
		err = op(st)
		if errors.Is(err, ErrClosed) && attempt < withStoreRetries {
			continue
		}
		return err
	}
}

// ReferenceResponse implements core.ReferenceSource.
func (h *Handle) ReferenceResponse(seed uint64, j int) ([]uint8, error) {
	var out []uint8
	err := h.withStore(func(st *Store) error {
		var err error
		out, err = st.ReferenceResponse(seed, j)
		return err
	})
	return out, err
}

// Claim durably claims a seed on the device's store.
func (h *Handle) Claim(seed uint64) error {
	return h.withStore(func(st *Store) error { return st.Claim(seed) })
}

// NextUnusedWithEpoch durably claims the next unused seed and reports its
// epoch, atomically with respect to a concurrent cutover.
func (h *Handle) NextUnusedWithEpoch() (uint64, uint32, error) {
	var seed uint64
	var epoch uint32
	err := h.withStore(func(st *Store) error {
		var err error
		seed, epoch, err = st.NextUnusedWithEpoch()
		return err
	})
	return seed, epoch, err
}

// Epoch returns the device's live enrollment epoch.
func (h *Handle) Epoch() uint32 {
	st, err := h.r.Device(h.id)
	if err != nil {
		return 0
	}
	return st.Epoch()
}

// Remaining returns the device's remaining authentication budget.
func (h *Handle) Remaining() int {
	st, err := h.r.Device(h.id)
	if err != nil {
		return 0
	}
	return st.Remaining()
}

// Devices lists the chip ids enrolled under the registry root, ascending.
func (r *Registry) Devices() ([]int, error) {
	entries, err := os.ReadDir(r.root)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name, ok := strings.CutPrefix(e.Name(), "device-")
		if !ok {
			continue
		}
		id, err := strconv.Atoi(name)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// CompactAll folds every enrolled device's WAL into its snapshot.
func (r *Registry) CompactAll() error {
	ids, err := r.Devices()
	if err != nil {
		return err
	}
	for _, id := range ids {
		st, err := r.Device(id)
		if err != nil {
			return fmt.Errorf("crpstore: device %d: %w", id, err)
		}
		if err := st.Compact(); err != nil {
			return fmt.Errorf("crpstore: device %d: %w", id, err)
		}
	}
	return nil
}

// Close closes every resident store. The registry stays usable — a
// subsequent Device call reloads from disk — so Close doubles as a
// fleet-wide cache flush (and as the "crash" half of recovery tests).
func (r *Registry) Close() error {
	var first error
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for id, e := range sh.open {
			if err := e.st.Close(); err != nil && first == nil {
				first = err
			}
			delete(sh.open, id)
		}
		sh.mu.Unlock()
	}
	return first
}
