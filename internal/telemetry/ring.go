package telemetry

import "sync/atomic"

// ring is the bounded in-memory history every retaining structure in this
// package shares — root spans, journal events, time-series points, device
// windows and transitions, the profile index — the in-memory counterpart
// of FileRing. Its capacity is fixed and allocated once; a push into a
// full ring overwrites the oldest entry and says so, so no owner can
// truncate silently. A ring is not safe for concurrent use: each owner
// guards it with the lock that already covers the rest of its state.
type ring[T any] struct {
	buf  []T
	next int // slot the next push writes
	n    int // entries held, at most len(buf)
}

// newRing returns an empty ring of the given capacity, which must be
// positive: every owner defaults a non-positive setting first.
func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, capacity)}
}

// push appends v, overwriting the oldest entry when the ring is full, and
// reports whether it did. It never allocates.
func (r *ring[T]) push(v T) (evicted bool) {
	r.buf[r.next] = v
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
	if r.n == len(r.buf) {
		return true
	}
	r.n++
	return false
}

// len reports how many entries the ring holds.
func (r *ring[T]) len() int { return r.n }

// capacity reports the fixed number of entries the ring can hold.
func (r *ring[T]) capacity() int { return len(r.buf) }

// appendTo appends the held entries to dst, oldest first.
func (r *ring[T]) appendTo(dst []T) []T {
	if r.n == len(r.buf) {
		dst = append(dst, r.buf[r.next:]...)
	}
	return append(dst, r.buf[:r.next]...)
}

// each calls fn on every held entry, oldest first.
func (r *ring[T]) each(fn func(T)) {
	if r.n == len(r.buf) {
		for _, v := range r.buf[r.next:] {
			fn(v)
		}
	}
	for _, v := range r.buf[:r.next] {
		fn(v)
	}
}

// last returns the newest entry (ok=false when the ring is empty).
func (r *ring[T]) last() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	i := r.next - 1
	if i < 0 {
		i = len(r.buf) - 1
	}
	return r.buf[i], true
}

// evictions is the drop accounting of a ring owner that publishes its
// overwrites: a lifetime tally plus an optional registry counter mirror.
// The owner embeds it, so its SetDropCounter and Dropped are the owner's.
type evictions struct {
	dropped     atomic.Uint64
	dropCounter atomic.Pointer[Counter]
}

// SetDropCounter mirrors ring evictions into a registry counter (nil
// detaches). A ring owner cannot self-register — it may serve many
// registries — so the owning telemetry bundle attaches the instrument.
func (e *evictions) SetDropCounter(c *Counter) { e.dropCounter.Store(c) }

// Dropped reports how many entries the ring has evicted to make room —
// the owner's silent-truncation tally.
func (e *evictions) Dropped() uint64 { return e.dropped.Load() }

// countDrop records one eviction.
func (e *evictions) countDrop() {
	e.dropped.Add(1)
	if c := e.dropCounter.Load(); c != nil {
		c.Inc()
	}
}
