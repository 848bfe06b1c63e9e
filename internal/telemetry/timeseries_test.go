package telemetry

import (
	"encoding/json"
	"math"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// manualClock is a hand-advanced clock for driving collection cadence.
type manualClock struct{ t time.Time }

func (c *manualClock) now() time.Time          { return c.t }
func (c *manualClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newHistoryFixture(capacity int) (*Registry, *TimeSeries, *manualClock) {
	reg := NewRegistry()
	ts := NewTimeSeries(reg, capacity, 5*time.Second)
	clk := &manualClock{t: time.Unix(1000, 0)}
	ts.SetClock(clk.now)
	return reg, ts, clk
}

func TestTimeSeriesCounterDeltas(t *testing.T) {
	reg, ts, clk := newHistoryFixture(8)
	c := reg.Counter("reqs_total", "requests")

	c.Add(3)
	ts.Collect() // first sight: delta against zero baseline
	clk.advance(5 * time.Second)
	c.Add(7)
	ts.Collect()
	clk.advance(5 * time.Second)
	ts.Collect() // quiet window

	series := ts.Query(RangeQuery{Metric: "reqs_total"})
	if len(series) != 1 {
		t.Fatalf("got %d series, want 1", len(series))
	}
	pts := series[0].Points
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	for i, want := range []float64{3, 7, 0} {
		if pts[i].Value != want {
			t.Errorf("point %d delta = %v, want %v", i, pts[i].Value, want)
		}
	}
	if pts[1].TimeUnixNs-pts[0].TimeUnixNs != int64(5*time.Second) {
		t.Errorf("collection spacing = %d ns, want 5s", pts[1].TimeUnixNs-pts[0].TimeUnixNs)
	}
}

func TestTimeSeriesGaugeValues(t *testing.T) {
	reg, ts, clk := newHistoryFixture(8)
	g := reg.Gauge("inflight", "inflight")

	g.Set(4)
	ts.Collect()
	clk.advance(5 * time.Second)
	g.Set(1.5)
	ts.Collect()

	series := ts.Query(RangeQuery{Metric: "inflight"})
	if len(series) != 1 || len(series[0].Points) != 2 {
		t.Fatalf("unexpected series shape: %+v", series)
	}
	if got := series[0].Points[0].Value; got != 4 {
		t.Errorf("first gauge sample = %v, want 4", got)
	}
	if got := series[0].Points[1].Value; got != 1.5 {
		t.Errorf("second gauge sample = %v, want 1.5", got)
	}
}

// TestTimeSeriesHistogramWindows is the core windowed-quantile property: a
// window's quantiles are computed from that window's observations alone, so
// a quiet (or differently-shaped) past cannot dilute the present.
func TestTimeSeriesHistogramWindows(t *testing.T) {
	reg, ts, clk := newHistoryFixture(8)
	h := reg.Histogram("rtt", "rtt", []float64{0.01, 0.1, 1})

	// Window 1: all observations fast.
	for i := 0; i < 100; i++ {
		h.Observe(0.005)
	}
	ts.Collect()
	clk.advance(5 * time.Second)

	// Window 2: all observations slow.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	ts.Collect()

	series := ts.Query(RangeQuery{Metric: "rtt"})
	if len(series) != 1 || len(series[0].Points) != 2 {
		t.Fatalf("unexpected series shape: %+v", series)
	}
	p1, p2 := series[0].Points[0], series[0].Points[1]
	if p1.Count != 100 || p2.Count != 100 {
		t.Fatalf("window counts = %d, %d, want 100 each", p1.Count, p2.Count)
	}
	if p1.P95 > 0.01 {
		t.Errorf("window 1 p95 = %v, want <= 0.01 (fast bucket)", p1.P95)
	}
	// If window 2's quantile were computed over the lifetime buckets, the
	// 100 fast observations would drag its p50 down into the fast bucket.
	if p2.P50 <= 0.1 {
		t.Errorf("window 2 p50 = %v, want > 0.1 (slow window undiluted by fast past)", p2.P50)
	}
	if math.Abs(p2.Sum-50) > 1e-9 {
		t.Errorf("window 2 sum = %v, want 50", p2.Sum)
	}
}

func TestTimeSeriesHistogramExemplar(t *testing.T) {
	reg, ts, clk := newHistoryFixture(8)
	h := reg.Histogram("rtt", "rtt", []float64{0.01, 0.1, 1})

	// Fast bulk with one exemplar, slow tail with another: the windowed-p99
	// bucket is the slow one, so the point must carry the slow trace.
	for i := 0; i < 99; i++ {
		h.ObserveExemplar(0.005, 0xFA57)
	}
	for i := 0; i < 5; i++ {
		h.ObserveExemplar(0.5, 0x51CC)
	}
	ts.Collect()

	p, ok := ts.Latest(`rtt`)
	if !ok {
		t.Fatal("no latest point for rtt")
	}
	if p.Exemplar != 0x51CC {
		t.Errorf("exemplar = %#x, want %#x (slow-bucket trace)", p.Exemplar, 0x51CC)
	}

	// Next window is empty: no count, no exemplar.
	clk.advance(5 * time.Second)
	ts.Collect()
	p, _ = ts.Latest(`rtt`)
	if p.Count != 0 || p.Exemplar != 0 {
		t.Errorf("empty window point = %+v, want zero count and exemplar", p)
	}
}

func TestTimeSeriesRingWrap(t *testing.T) {
	reg, ts, clk := newHistoryFixture(4)
	g := reg.Gauge("v", "v")
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		ts.Collect()
		clk.advance(time.Second)
	}
	series := ts.Query(RangeQuery{})
	if len(series) != 1 {
		t.Fatalf("got %d series, want 1", len(series))
	}
	pts := series[0].Points
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want capacity 4", len(pts))
	}
	for i, p := range pts {
		if want := float64(6 + i); p.Value != want {
			t.Errorf("point %d = %v, want %v (oldest-first after wrap)", i, p.Value, want)
		}
	}
}

func TestTimeSeriesLabeledSeries(t *testing.T) {
	reg, ts, _ := newHistoryFixture(8)
	vec := reg.CounterVec("verdicts_total", "verdicts", "verdict")
	vec.With("accept").Add(5)
	vec.With("reject").Add(2)
	ts.Collect()

	series := ts.Query(RangeQuery{Metric: "verdicts_total"})
	if len(series) != 2 {
		t.Fatalf("got %d series for family query, want 2", len(series))
	}
	byKey := map[string]float64{}
	for _, s := range series {
		if s.Family != "verdicts_total" {
			t.Errorf("series family = %q, want verdicts_total", s.Family)
		}
		byKey[s.Key] = s.Points[0].Value
	}
	if byKey[`verdicts_total{verdict="accept"}`] != 5 || byKey[`verdicts_total{verdict="reject"}`] != 2 {
		t.Errorf("labeled deltas = %v", byKey)
	}

	// Exact-key query selects one series.
	one := ts.Query(RangeQuery{Metric: `verdicts_total{verdict="accept"}`})
	if len(one) != 1 {
		t.Fatalf("exact-key query got %d series, want 1", len(one))
	}
}

func TestTimeSeriesRangeAndStep(t *testing.T) {
	reg, ts, clk := newHistoryFixture(32)
	g := reg.Gauge("v", "v")
	base := clk.t
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		ts.Collect()
		clk.advance(time.Second)
	}

	// Start/end bounds are inclusive.
	q := RangeQuery{
		Start: base.Add(2 * time.Second).UnixNano(),
		End:   base.Add(5 * time.Second).UnixNano(),
	}
	pts := ts.Query(q)[0].Points
	if len(pts) != 4 || pts[0].Value != 2 || pts[3].Value != 5 {
		t.Fatalf("range query points = %+v, want values 2..5", pts)
	}

	// Step keeps the first point of each step bucket.
	pts = ts.Query(RangeQuery{Step: 3 * time.Second})[0].Points
	if len(pts) != 4 {
		t.Fatalf("step query retained %d points, want 4", len(pts))
	}
}

func TestParseRangeQuery(t *testing.T) {
	v := url.Values{}
	v.Set("metric", "rtt")
	v.Set("start", "100.5")
	v.Set("end", "200")
	v.Set("step", "15")
	q, err := ParseRangeQuery(v)
	if err != nil {
		t.Fatal(err)
	}
	if q.Metric != "rtt" || q.Start != int64(100.5*1e9) || q.End != int64(200*1e9) || q.Step != 15*time.Second {
		t.Errorf("parsed query = %+v", q)
	}

	v.Set("step", "2m30s")
	if q, err = ParseRangeQuery(v); err != nil || q.Step != 150*time.Second {
		t.Errorf("duration step: %+v, %v", q, err)
	}

	for key, bad := range map[string]string{"start": "nope", "step": "xyz"} {
		v := url.Values{}
		v.Set(key, bad)
		if _, err := ParseRangeQuery(v); err == nil {
			t.Errorf("bad %s %q parsed without error", key, bad)
		}
	}
}

func TestTimeSeriesWriteJSON(t *testing.T) {
	reg, ts, clk := newHistoryFixture(8)
	c := reg.Counter("reqs_total", "requests")
	h := reg.Histogram("rtt", "rtt", []float64{0.01, 0.1, 1})
	c.Add(2)
	h.ObserveExemplar(0.5, 0xABCD)
	ts.Collect()
	clk.advance(5 * time.Second)
	c.Add(1)
	ts.Collect()

	var b strings.Builder
	if err := WriteJSON(&b, ts.History(RangeQuery{})); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		WindowSeconds float64 `json:"window_seconds"`
		Capacity      int     `json:"capacity"`
		Collections   uint64  `json:"collections"`
		Series        []struct {
			Name   string           `json:"name"`
			Kind   string           `json:"kind"`
			Points []map[string]any `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("history JSON does not parse: %v\n%s", err, b.String())
	}
	if doc.WindowSeconds != 5 || doc.Capacity != 8 || doc.Collections != 2 {
		t.Errorf("header = %+v", doc)
	}
	if len(doc.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(doc.Series))
	}
	for _, s := range doc.Series {
		switch s.Name {
		case "reqs_total":
			if s.Kind != "counter" || len(s.Points) != 2 || s.Points[1]["v"] != 1.0 {
				t.Errorf("counter series = %+v", s)
			}
		case "rtt":
			if s.Kind != "histogram" || len(s.Points) != 2 {
				t.Fatalf("histogram series = %+v", s)
			}
			if s.Points[0]["exemplar"] != TraceID(0xABCD).String() {
				t.Errorf("exemplar = %v, want %v", s.Points[0]["exemplar"], TraceID(0xABCD).String())
			}
			if _, ok := s.Points[1]["exemplar"]; ok {
				t.Errorf("empty window carries exemplar: %+v", s.Points[1])
			}
		default:
			t.Errorf("unexpected series %q", s.Name)
		}
	}
}

// TestTimeSeriesCollectAllocs guards the allocation-conscious claim: after
// the first sight of every series, a Collect pass allocates nothing.
func TestTimeSeriesCollectAllocs(t *testing.T) {
	reg, ts, _ := newHistoryFixture(16)
	reg.Counter("c_total", "c").Add(1)
	reg.Gauge("g", "g").Set(1)
	reg.Histogram("h", "h", DefBuckets).Observe(0.5)
	ts.Collect() // establish rings
	allocs := testing.AllocsPerRun(50, func() { ts.Collect() })
	if allocs > 0 {
		t.Errorf("Collect allocates %.1f per run after warm-up, want 0", allocs)
	}
}

// TestEvery checks the one background loop: it ticks, its stop is
// idempotent, and no tick runs once stop has returned — a tick in flight
// when stop is called finishes before stop returns.
func TestEvery(t *testing.T) {
	var ticks atomic.Int64
	var stopped atomic.Bool
	stop := Every(time.Millisecond, func() {
		time.Sleep(2 * time.Millisecond)
		if stopped.Load() {
			t.Error("tick ran after stop returned")
		}
		ticks.Add(1)
	})
	deadline := time.Now().Add(5 * time.Second)
	for ticks.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("loop never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stopped.Store(true)
	n := ticks.Load()
	stop() // idempotent
	time.Sleep(10 * time.Millisecond)
	if late := ticks.Load() - n; late != 0 {
		t.Fatalf("%d tick(s) after stop returned", late)
	}
}
