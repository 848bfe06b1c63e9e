package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSpanIDsMintedDeterministically(t *testing.T) {
	mk := func() (TraceID, SpanID, SpanID) {
		tr := NewTracer(4)
		tr.SetIDSeed(42)
		root := tr.StartSpan("root")
		child := root.Child("child")
		return root.TraceID(), root.SpanID(), child.SpanID()
	}
	t1, s1, c1 := mk()
	t2, s2, c2 := mk()
	if t1 != t2 || s1 != s2 || c1 != c2 {
		t.Fatalf("seeded IDs not deterministic: (%v,%v,%v) vs (%v,%v,%v)", t1, s1, c1, t2, s2, c2)
	}
	if t1 == 0 || s1 == 0 || c1 == 0 {
		t.Fatal("zero ID minted (zero is reserved for absent)")
	}
}

func TestChildInheritsTraceAndParent(t *testing.T) {
	tr := NewTracer(4)
	tr.SetIDSeed(7)
	root := tr.StartSpan("session")
	child := root.Child("verify")
	if child.TraceID() != root.TraceID() {
		t.Fatal("child did not inherit the trace ID")
	}
	if child.ParentSpanID() != root.SpanID() {
		t.Fatal("child parent_span_id != root span_id")
	}
	if child.SpanID() == root.SpanID() {
		t.Fatal("child reused the root span ID")
	}
}

func TestStartSpanInTraceAdoptsRemoteContext(t *testing.T) {
	verifier := NewTracer(4)
	verifier.SetIDSeed(1)
	prover := NewTracer(4)
	prover.SetIDSeed(2)

	vsp := verifier.StartSpan("attest.session")
	tc := vsp.Context()
	psp := prover.StartSpanInTrace("attest.prove", tc)
	if psp.TraceID() != vsp.TraceID() {
		t.Fatal("prover span not stitched into the verifier's trace")
	}
	if psp.ParentSpanID() != vsp.SpanID() {
		t.Fatal("prover span not parented to the propagated span")
	}
	psp.Finish()
	vsp.Finish()
	if got := prover.ByTrace(vsp.TraceID()); len(got) != 1 || got[0] != psp {
		t.Fatalf("ByTrace on the prover ring = %v", got)
	}
	// An invalid context degrades to a fresh trace, never a zero one.
	orphan := prover.StartSpanInTrace("orphan", TraceContext{})
	if orphan.TraceID() == 0 || orphan.TraceID() == vsp.TraceID() {
		t.Fatalf("invalid context handling: trace = %v", orphan.TraceID())
	}
}

func TestSegmentRecordsComputedDuration(t *testing.T) {
	tr := NewTracer(4)
	tr.SetClock(fakeClock(time.Unix(50, 0), time.Millisecond))
	root := tr.StartSpan("session")
	start := time.Unix(50, 0)
	seg := root.Segment("prover_compute", start, 123*time.Millisecond)
	if got := seg.Duration(); got != 123*time.Millisecond {
		t.Fatalf("segment duration = %v, want 123ms", got)
	}
	if seg.TraceID() != root.TraceID() || seg.ParentSpanID() != root.SpanID() {
		t.Fatal("segment not attached to the parent trace")
	}
	kids := root.Children()
	if len(kids) != 1 || kids[0] != seg {
		t.Fatalf("segment not in Children(): %v", kids)
	}
}

func TestTracerDropCounterOnEviction(t *testing.T) {
	tr := NewTracer(2)
	var metric Counter
	tr.SetDropCounter(&metric)
	for i := 0; i < 5; i++ {
		tr.StartSpan("s").Finish()
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3 (5 roots into a ring of 2)", got)
	}
	if metric.Value() != 3 {
		t.Fatalf("drop counter = %d, want 3", metric.Value())
	}
}

func TestTraceJSONCarriesIDs(t *testing.T) {
	tr := NewTracer(4)
	tr.SetIDSeed(9)
	sp := tr.StartSpan("session")
	sp.Child("verify").Finish()
	sp.Finish()
	var sb strings.Builder
	if err := WriteJSON(&sb, tr.Recent()); err != nil {
		t.Fatal(err)
	}
	var roots []struct {
		TraceID  string `json:"trace_id"`
		SpanID   string `json:"span_id"`
		Children []struct {
			ParentSpanID string `json:"parent_span_id"`
		} `json:"children"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &roots); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, sb.String())
	}
	if len(roots) != 1 || len(roots[0].Children) != 1 {
		t.Fatalf("trace JSON = %+v, want one root with one child", roots)
	}
	if got := roots[0].TraceID; got != sp.TraceID().String() {
		t.Errorf("trace_id = %q, want %s", got, sp.TraceID())
	}
	if got := roots[0].SpanID; got != sp.SpanID().String() {
		t.Errorf("span_id = %q, want %s", got, sp.SpanID())
	}
	if got := roots[0].Children[0].ParentSpanID; got != sp.SpanID().String() { // on the child
		t.Errorf("child parent_span_id = %q, want %s", got, sp.SpanID())
	}
}

// --- Histogram.Quantile edge cases (documented, test-enforced) ---

func TestQuantileEmptyHistogramIsNaN(t *testing.T) {
	h := newHistogram(nil)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); !math.IsNaN(got) {
			t.Errorf("Quantile(%g) on empty histogram = %g, want NaN", q, got)
		}
	}
	if s := h.Summary(); !math.IsNaN(s.P50) || s.Count != 0 {
		t.Errorf("empty Summary = %+v, want NaN quantiles", s)
	}
}

func TestQuantileOutOfRangeClamps(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3} {
		h.Observe(v)
	}
	lo, hi := h.Quantile(0), h.Quantile(1)
	if got := h.Quantile(-0.5); got != lo {
		t.Errorf("Quantile(-0.5) = %g, want clamp to Quantile(0) = %g", got, lo)
	}
	if got := h.Quantile(2); got != hi {
		t.Errorf("Quantile(2) = %g, want clamp to Quantile(1) = %g", got, hi)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		t.Errorf("in-range quantiles NaN on non-empty histogram: %g, %g", lo, hi)
	}
}

func TestQuantileAllObservationsInInfBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for i := 0; i < 10; i++ {
		h.Observe(1000) // beyond every finite bound: +Inf bucket
	}
	// Clamp-to-last-finite-bound behaviour: the estimator cannot
	// interpolate inside +Inf, so every quantile reports the last bound.
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if got := h.Quantile(q); got != 4 {
			t.Errorf("Quantile(%g) = %g, want 4 (last finite bound)", q, got)
		}
	}
}
