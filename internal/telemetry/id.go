package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
)

// Trace identity. Spans carry a (trace ID, span ID) pair so the spans of
// one attestation session can be correlated across processes: the verifier
// mints the trace ID, propagates it to the prover inside the challenge
// frame's trace-header extension, and both sides' /debug/traces then show
// spans under the same trace ID — one logical tree per session, stitched
// by ID rather than by shared memory.
//
// IDs are minted from a seeded SplitMix64 stream on the tracer, NOT from
// the wall clock or a global RNG: tests inject a seed (Tracer.SetIDSeed)
// and get bit-identical IDs run after run, while production tracers seed
// from crypto/rand at construction. Zero is reserved as "absent" in both
// ID spaces, so a zero TraceContext unambiguously means "no propagated
// context" on the wire.

// TraceID identifies one logical operation across processes (64-bit,
// rendered as 16 hex digits; 0 = absent).
type TraceID uint64

// String renders the ID as fixed-width hex.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// MarshalText renders the ID in JSON as its hex string.
func (t TraceID) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// SpanID identifies one span within a trace (0 = absent).
type SpanID uint64

// String renders the ID as fixed-width hex.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// MarshalText renders the ID in JSON as its hex string.
func (s SpanID) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// TraceContext is the propagatable part of a span: the pair a wire frame
// carries so a remote peer can parent its spans into the same trace.
type TraceContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context carries a real trace (both IDs
// non-zero).
func (tc TraceContext) Valid() bool { return tc.Trace != 0 && tc.Span != 0 }

// idMix is SplitMix64: the tracer's ID stream. It lives here (three lines)
// rather than importing the simulation RNG so the telemetry package stays
// dependency-free.
func idMix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// randomIDSeed draws a process-unique ID seed. crypto/rand rather than the
// clock: ID minting must work identically under injected test clocks.
func randomIDSeed() uint64 {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// Entropy exhaustion is effectively impossible; fall back to a
		// fixed seed rather than failing tracer construction.
		return 0x5eed1d5eed1d5eed
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// SetIDSeed re-seeds the tracer's ID stream. Tests use this to make every
// minted trace/span ID deterministic; the IDs for the n-th span are then a
// pure function of (seed, n).
func (t *Tracer) SetIDSeed(seed uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.idState = seed
}

// mintID draws the next non-zero ID from the tracer's stream.
func (t *Tracer) mintID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if id := idMix(&t.idState); id != 0 {
			return id
		}
	}
}
