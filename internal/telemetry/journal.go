package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The session flight recorder: a bounded ring journal of structured
// protocol events. Metrics aggregate and traces sample; the journal is the
// third leg — an ordered, per-event record of what the protocol actually
// did (session opened, seed claimed, challenge sent, checksum received,
// verdict, retries, injected faults, quarantine transitions), each event
// carrying the trace ID of the session it belongs to. When a session
// fails, the recent journal IS the post-mortem: dump it, filter by trace
// ID, and the failure's whole protocol history is in hand.
//
// The ring stores events by value in a preallocated slice, so Append is
// one lock, one copy, zero allocations — cheap enough to live on the
// attestation hot path. Overwrites are counted, never silent.

// EventKind classifies a journal event.
type EventKind uint8

// The protocol event taxonomy. The set is closed and small on purpose:
// kinds are metric-label-grade enumerations, with the free-form texture of
// an event in its Detail string.
const (
	EventSessionOpen      EventKind = iota // challenge drawn, session exists
	EventSeedClaim                         // durable budget seed claimed
	EventChallengeSent                     // challenge frame left the verifier
	EventChecksumReceived                  // response (tag + helpers) arrived
	EventVerifyOutcome                     // verdict rendered
	EventRetry                             // another attempt started
	EventBackoff                           // backoff computed before a retry
	EventFaultInjected                     // deterministic harness fired
	EventQuarantine                        // circuit-breaker transition
	EventEpoch                             // epoch lifecycle: exhaustion, re-enrollment, cutover
	EventAlert                             // SLO burn-rate alert fired or resolved

	numEventKinds
)

// String names the kind (snake_case, stable: dumps are parsed by tools).
func (k EventKind) String() string {
	switch k {
	case EventSessionOpen:
		return "session_open"
	case EventSeedClaim:
		return "seed_claim"
	case EventChallengeSent:
		return "challenge_sent"
	case EventChecksumReceived:
		return "checksum_received"
	case EventVerifyOutcome:
		return "verify_outcome"
	case EventRetry:
		return "retry"
	case EventBackoff:
		return "backoff"
	case EventFaultInjected:
		return "fault_injected"
	case EventQuarantine:
		return "quarantine"
	case EventEpoch:
		return "epoch"
	case EventAlert:
		return "alert"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one journal record. Seq and Time are stamped by Append; the
// caller fills the rest. Trace links the event to the session's span tree
// (zero when no session context exists, e.g. a fault injected between
// sessions), Session is the protocol session number, and Device names the
// subject device when known.
type Event struct {
	Seq     uint64
	Time    time.Time
	Trace   TraceID
	Session uint64
	Device  string
	Kind    EventKind
	Detail  string
}

// DefaultJournalCapacity is the ring size of NewJournal(0).
const DefaultJournalCapacity = 1024

// Journal is the bounded event ring. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	clock  func() time.Time
	ring   []Event
	next   int
	filled bool
	seq    uint64

	dropped     atomic.Uint64
	dropCounter atomic.Pointer[Counter]
}

// NewJournal returns a journal retaining the last capacity events
// (capacity <= 0 means DefaultJournalCapacity) on the real-time clock.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{clock: time.Now, ring: make([]Event, capacity)}
}

// SetClock injects the journal's clock (nil restores time.Now), so event
// timestamps are deterministic in tests.
func (j *Journal) SetClock(now func() time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	j.clock = now
}

// SetDropCounter mirrors ring overwrites into a registry counter (nil
// detaches); like the tracer, the journal cannot self-register.
func (j *Journal) SetDropCounter(c *Counter) { j.dropCounter.Store(c) }

// Dropped reports how many events the ring has overwritten — the
// journal's silent-truncation tally.
func (j *Journal) Dropped() uint64 { return j.dropped.Load() }

// Append stamps the event with the next sequence number and the journal
// clock and stores it, overwriting (and counting) the oldest event when
// the ring is full. It returns the stamped sequence number.
func (j *Journal) Append(e Event) uint64 {
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	e.Time = j.clock()
	evict := j.filled
	j.ring[j.next] = e
	j.next++
	if j.next == len(j.ring) {
		j.next = 0
		j.filled = true
	}
	j.mu.Unlock()
	if evict {
		j.dropped.Add(1)
		if c := j.dropCounter.Load(); c != nil {
			c.Inc()
		}
	}
	return e.Seq
}

// Len reports how many events the ring currently retains.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.filled {
		return len(j.ring)
	}
	return j.next
}

// Recent returns the retained events, oldest first.
func (j *Journal) Recent() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.ring))
	if j.filled {
		out = append(out, j.ring[j.next:]...)
	}
	out = append(out, j.ring[:j.next]...)
	return out
}

// ByTrace returns the retained events carrying the given trace ID, oldest
// first — one session's protocol history.
func (j *Journal) ByTrace(id TraceID) []Event {
	var out []Event
	for _, e := range j.Recent() {
		if e.Trace == id {
			out = append(out, e)
		}
	}
	return out
}

// MarshalJSON renders the event as one /debug/journal record (and one
// flight-dump line); an absent trace, session, device or detail is
// omitted.
func (e Event) MarshalJSON() ([]byte, error) {
	return marshal(struct {
		Seq     uint64  `json:"seq"`
		Time    int64   `json:"time_unix_ns"`
		Kind    string  `json:"kind"`
		Trace   TraceID `json:"trace_id,omitempty"`
		Session uint64  `json:"session,omitempty"`
		Device  string  `json:"device,omitempty"`
		Detail  string  `json:"detail,omitempty"`
	}{e.Seq, e.Time.UnixNano(), e.Kind.String(), e.Trace, e.Session, e.Device, e.Detail})
}

// Snapshot writes the retained events as JSON lines (one event per line),
// preceded by a header line recording the drop tally — the flight-recorder
// dump format. JSON lines rather than an array so a dump truncated by the
// failing process is still parseable up to the cut.
func (j *Journal) Snapshot(w io.Writer, header string) error {
	events := j.Recent()
	var b bytes.Buffer
	if err := WriteJSON(&b, struct {
		FlightRecorder string `json:"flight_recorder"`
		Events         int    `json:"events"`
		Dropped        uint64 `json:"dropped"`
	}{header, len(events), j.Dropped()}); err != nil {
		return err
	}
	for _, e := range events {
		if err := WriteJSON(&b, e); err != nil {
			return err
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}
