package telemetry

import (
	"maps"
	"sync"
	"time"
)

// This file implements lightweight in-process tracing: spans with
// parent/child structure and string attributes, collected by a Tracer into
// a ring buffer of recent root spans. There is no wire protocol and no
// sampling machinery — the point is that an operator (or a test) can ask
// "what did the last N attestation sessions actually spend their time on"
// and get the challenge→PUF-eval→checksum→verdict breakdown without
// attaching a debugger.
//
// The tracer's clock is injectable, so span timing is testable without
// sleeping: a fake clock that advances a fixed step per call yields fully
// deterministic durations.

// Span is one timed operation, possibly with children. All methods are safe
// for concurrent use, though a span is typically owned by one goroutine.
type Span struct {
	tracer *Tracer
	parent *Span
	name   string
	start  time.Time

	trace    TraceID
	id       SpanID
	parentID SpanID // the in-process parent's ID, or the remote parent's

	mu       sync.Mutex
	end      time.Time
	finished bool
	attrs    map[string]string
	children []*Span
}

// Name returns the span's operation name.
func (s *Span) Name() string { return s.name }

// Start returns the span's start time.
func (s *Span) Start() time.Time { return s.start }

// TraceID returns the trace this span belongs to.
func (s *Span) TraceID() TraceID { return s.trace }

// SpanID returns the span's own ID.
func (s *Span) SpanID() SpanID { return s.id }

// ParentSpanID returns the parent span's ID (in-process or remote); zero
// for a true root.
func (s *Span) ParentSpanID() SpanID { return s.parentID }

// Context returns the span's propagatable trace context — what a wire
// frame carries so a remote peer parents its spans into this trace.
func (s *Span) Context() TraceContext { return TraceContext{Trace: s.trace, Span: s.id} }

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// Attr returns the attribute value for key ("" when absent).
func (s *Span) Attr(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attrs[key]
}

// Child opens a child span with the same tracer clock, inheriting the
// trace ID.
func (s *Span) Child(name string) *Span {
	c := &Span{
		tracer: s.tracer, parent: s, name: name, start: s.tracer.now(),
		trace: s.trace, id: SpanID(s.tracer.mintID()), parentID: s.id,
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Segment records an already-measured child span covering [start,
// start+d]. The cross-process session tree uses this for durations that
// are computed rather than clocked in this process — the modelled link
// transfers and the prover's simulated compute time — so the verifier's
// trace shows link/compute/verify segments without pretending its local
// clock observed them.
func (s *Span) Segment(name string, start time.Time, d time.Duration) *Span {
	c := &Span{
		tracer: s.tracer, parent: s, name: name, start: start,
		trace: s.trace, id: SpanID(s.tracer.mintID()), parentID: s.id,
		end: start.Add(d), finished: true,
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Children returns the child spans opened so far.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Finish stamps the span's end time. Finishing a root span records it in
// the tracer's ring buffer; finishing twice is a no-op.
func (s *Span) Finish() {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	s.end = s.tracer.now()
	s.mu.Unlock()
	if s.parent == nil {
		s.tracer.record(s)
	}
}

// Duration returns end−start for a finished span; for a live span it
// returns the elapsed time so far on the tracer clock.
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return s.end.Sub(s.start)
	}
	return s.tracer.now().Sub(s.start)
}

// Tracer mints spans against an injectable clock and retains the most
// recent finished root spans in a ring buffer.
type Tracer struct {
	mu      sync.Mutex
	clock   func() time.Time
	ring    ring[*Span]
	idState uint64 // SplitMix64 state for trace/span ID minting

	evictions // root spans evicted by ring overwrite
}

// DefaultTraceCapacity is the ring size of NewTracer(0) and the package
// default tracer.
const DefaultTraceCapacity = 64

// NewTracer returns a tracer retaining the last capacity root spans
// (capacity <= 0 means DefaultTraceCapacity) on the real-time clock, with
// its ID stream seeded from crypto/rand (override with SetIDSeed for
// deterministic IDs).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{clock: time.Now, ring: newRing[*Span](capacity), idState: randomIDSeed()}
}

var defaultTracer = NewTracer(0)

// DefaultTracer returns the process-wide tracer the attestation pipeline
// records into and the admin endpoint serves.
func DefaultTracer() *Tracer { return defaultTracer }

// SetClock injects the tracer's clock (nil restores time.Now). Tests use a
// stepping fake so span durations are deterministic without sleeping.
func (t *Tracer) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	t.clock = now
}

// Now reads the tracer clock: time.Now unless a test clock was injected.
// Instrumented code times whole operations against this so elapsed-time
// stats stay deterministic under a fake clock.
func (t *Tracer) Now() time.Time { return t.now() }

func (t *Tracer) now() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clock()
}

// StartSpan opens a root span in a freshly minted trace.
func (t *Tracer) StartSpan(name string) *Span {
	return &Span{
		tracer: t, name: name, start: t.now(),
		trace: TraceID(t.mintID()), id: SpanID(t.mintID()),
	}
}

// StartSpanInTrace opens a root span adopted into an existing trace — the
// receiving half of cross-process propagation: a prover that decodes a
// TraceContext from the challenge frame opens its serving span here, and
// both processes' trace rings then carry the same trace ID for the
// session. The span is a ring-recorded root in THIS process (its remote
// parent lives elsewhere); an invalid context degrades to StartSpan.
func (t *Tracer) StartSpanInTrace(name string, tc TraceContext) *Span {
	if !tc.Valid() {
		return t.StartSpan(name)
	}
	return &Span{
		tracer: t, name: name, start: t.now(),
		trace: tc.Trace, id: SpanID(t.mintID()), parentID: tc.Span,
	}
}

// record stores a finished root span in the ring, counting the span it
// evicts (a full ring overwrites oldest-first; without the counter that
// truncation would be invisible).
func (t *Tracer) record(s *Span) {
	t.mu.Lock()
	evicted := t.ring.push(s)
	t.mu.Unlock()
	if evicted {
		t.countDrop()
	}
}

// Recent returns the retained root spans, oldest first.
func (t *Tracer) Recent() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.appendTo(make([]*Span, 0, t.ring.len()))
}

// ByTrace returns the retained root spans belonging to the given trace,
// oldest first — the stitching query: on either end of the wire it yields
// that end's view of one cross-process session.
func (t *Tracer) ByTrace(id TraceID) []*Span {
	var out []*Span
	for _, s := range t.Recent() {
		if s.trace == id {
			out = append(out, s)
		}
	}
	return out
}

// MarshalJSON renders the span and its subtree as one /debug/traces
// record: {"name", "trace_id", "span_id", "parent_span_id",
// "start_unix_ns", "duration_seconds", "attrs", "children"}, with the
// parent, attributes and children omitted when absent.
func (s *Span) MarshalJSON() ([]byte, error) {
	d := s.Duration()
	s.mu.Lock()
	attrs := maps.Clone(s.attrs)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	return marshal(struct {
		Name     string            `json:"name"`
		Trace    TraceID           `json:"trace_id"`
		Span     SpanID            `json:"span_id"`
		Parent   SpanID            `json:"parent_span_id,omitempty"`
		Start    int64             `json:"start_unix_ns"`
		Duration jsonFloat         `json:"duration_seconds"`
		Attrs    map[string]string `json:"attrs,omitempty"`
		Children []*Span           `json:"children,omitempty"`
	}{s.name, s.trace, s.id, s.parentID, s.start.UnixNano(), jsonFloat(d.Seconds()), attrs, children})
}
