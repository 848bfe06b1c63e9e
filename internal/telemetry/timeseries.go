package telemetry

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// Time-series history: the observability layer's memory. Metrics answer
// "what is the p99 now"; the store answers "when did the p99 start
// climbing" — the question an operator actually asks when a fleet-wide RTT
// shift (the paper's overclocking/proxy signature) or a re-enrollment
// cutover ripples through. Each Collect() walks the owning Registry once
// and appends one windowed sample per live series into a fixed-capacity
// ring:
//
//   - counters record the DELTA since the previous collection (a rate,
//     once divided by the window), not the lifetime total;
//   - gauges record their instantaneous value;
//   - histograms record a windowed summary — observation count, sum, and
//     p50/p95/p99 computed over the bucket increments of the window alone,
//     so a quiet hour cannot dilute a hot minute — plus the exemplar
//     (trace ID) of the bucket owning the windowed p99.
//
// Retention is capacity × collection-interval (the default 720 × 5 s = one
// hour); memory is bounded at capacity × ~64 B per live series and nothing
// is allocated per-Collect beyond first-sight ring creation. The store
// never reads the wall clock except through its injectable clock, so tests
// drive hours of history in microseconds.

// DefaultTimeSeriesCapacity is the per-series ring length of NewTimeSeries
// with a non-positive capacity.
const DefaultTimeSeriesCapacity = 720

// DefaultTimeSeriesWindow is the nominal collection interval advertised to
// consumers when the owner does not choose one.
const DefaultTimeSeriesWindow = 5 * time.Second

// Point is one windowed sample of one series.
type Point struct {
	// TimeUnixNs stamps the collection instant.
	TimeUnixNs int64
	// Value is the counter delta or gauge value (scalar kinds only).
	Value float64
	// Histogram window summary (histogram kind only).
	Count         uint64
	Sum           float64
	P50, P95, P99 float64
	// Exemplar is the trace ID retained by the bucket owning the windowed
	// p99 (0 = none): the direct link from a latency spike in history to a
	// recorded trace at /debug/traces.
	Exemplar uint64
}

// seriesRing is the bounded history of one labeled series.
type seriesRing struct {
	key    string // name{labels}, the JSON exposition key
	family string // bare family name, for prefix queries
	kind   kind

	points ring[Point]

	// Scalar state for counter deltas.
	lastCounter uint64
	// Histogram state: the previous collection's cumulative bucket counts
	// and running sum/total, for window deltas.
	lastBuckets []uint64
	lastSum     float64
	lastCount   uint64
}

// snapshot returns the retained points, oldest first, filtered to
// [startNs, endNs] (0 bounds disable) and downsampled to stepNs (keeping
// the first point of each step bucket; 0 keeps all).
func (s *seriesRing) snapshot(startNs, endNs, stepNs int64) []Point {
	var out []Point
	lastStep := int64(math.MinInt64)
	s.points.each(func(p Point) {
		if startNs != 0 && p.TimeUnixNs < startNs {
			return
		}
		if endNs != 0 && p.TimeUnixNs > endNs {
			return
		}
		if stepNs > 0 {
			bucket := p.TimeUnixNs / stepNs
			if bucket == lastStep {
				return
			}
			lastStep = bucket
		}
		out = append(out, p)
	})
	return out
}

// TimeSeries collects windowed samples of every series in a Registry into
// bounded per-series rings. Safe for concurrent use; Collect and the query
// paths share one mutex (collection is control-plane work, never on the
// attestation hot path).
type TimeSeries struct {
	mu       sync.Mutex
	reg      *Registry
	clock    func() time.Time
	capacity int
	window   time.Duration

	byKey    map[string]*seriesRing
	bySeries map[*series]*seriesRing
	order    []*seriesRing

	collections uint64
	// Reused per-Collect buffers: after every live series has been seen
	// once, a collection pass allocates nothing.
	scratch    []uint64 // histogram delta buffer
	famScratch []*family
	serScratch []*series
}

// NewTimeSeries builds a store over reg retaining capacity points per
// series (<=0 means DefaultTimeSeriesCapacity). window is the nominal
// collection interval advertised to consumers (<=0 means
// DefaultTimeSeriesWindow); the actual cadence is whoever calls Collect.
func NewTimeSeries(reg *Registry, capacity int, window time.Duration) *TimeSeries {
	if capacity <= 0 {
		capacity = DefaultTimeSeriesCapacity
	}
	if window <= 0 {
		window = DefaultTimeSeriesWindow
	}
	return &TimeSeries{
		reg: reg, clock: time.Now,
		capacity: capacity, window: window,
		byKey:    make(map[string]*seriesRing),
		bySeries: make(map[*series]*seriesRing),
	}
}

// SetClock injects the store's clock (nil restores time.Now).
func (ts *TimeSeries) SetClock(now func() time.Time) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	ts.clock = now
}

// Window returns the nominal collection interval.
func (ts *TimeSeries) Window() time.Duration {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.window
}

// SetWindow updates the nominal collection interval advertised to
// consumers (<=0 is ignored). Call it when the actual collection cadence
// differs from the constructor's default.
func (ts *TimeSeries) SetWindow(window time.Duration) {
	if window <= 0 {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.window = window
}

// Collections reports how many Collect passes have run.
func (ts *TimeSeries) Collections() uint64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.collections
}

// appendFamilies appends the registry's families (registration order, no
// sort — history order is first-collection order) into dst without
// allocating when dst has capacity.
func (r *Registry) appendFamilies(dst []*family) []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(dst, r.order...)
}

// appendSeries appends the family's series (creation order) into dst
// without allocating when dst has capacity.
func (f *family) appendSeries(dst []*series) []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append(dst, f.order...)
}

// ring returns (creating on first sight) the ring for a series. Rings are
// cached by series identity so the steady-state lookup builds no key
// string; the exposition key is rendered once, at creation.
func (ts *TimeSeries) ring(f *family, s *series) *seriesRing {
	if r, ok := ts.bySeries[s]; ok {
		return r
	}
	key := f.name + labelString(f.labels, s.values, "", "")
	r := &seriesRing{
		key: key, family: f.name, kind: f.kind,
		points: newRing[Point](ts.capacity),
	}
	if f.kind == kindHistogram {
		r.lastBuckets = make([]uint64, len(s.hist.counts))
	}
	ts.bySeries[s] = r
	ts.byKey[key] = r
	ts.order = append(ts.order, r)
	return r
}

// Collect walks the registry and appends one windowed point per live
// series, stamped with the store clock. The first sight of a counter or
// histogram series establishes its baseline AND records the first window
// (deltas against zero), so a series born mid-history is visible from its
// first sample.
func (ts *TimeSeries) Collect() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	now := ts.clock().UnixNano()
	ts.collections++
	ts.famScratch = ts.reg.appendFamilies(ts.famScratch[:0])
	for _, f := range ts.famScratch {
		ts.serScratch = f.appendSeries(ts.serScratch[:0])
		for _, s := range ts.serScratch {
			r := ts.ring(f, s)
			switch f.kind {
			case kindCounter:
				v := s.counter.Value()
				r.points.push(Point{TimeUnixNs: now, Value: float64(v - r.lastCounter)})
				r.lastCounter = v
			case kindGauge:
				r.points.push(Point{TimeUnixNs: now, Value: s.gauge.Value()})
			case kindHistogram:
				r.points.push(ts.histogramPoint(now, s.hist, r))
			}
		}
	}
}

// histogramPoint computes one windowed histogram sample: bucket deltas
// against the ring's previous cumulative counts, quantiles over the deltas
// alone, and the p99-owning bucket's exemplar. Called with ts.mu held.
func (ts *TimeSeries) histogramPoint(now int64, h *Histogram, r *seriesRing) Point {
	n := len(h.counts)
	if cap(ts.scratch) < n {
		ts.scratch = make([]uint64, n)
	}
	delta := ts.scratch[:n]
	var count uint64
	for i := 0; i < n; i++ {
		cur := h.counts[i].Load()
		delta[i] = cur - r.lastBuckets[i]
		count += delta[i]
		r.lastBuckets[i] = cur
	}
	sum := h.Sum()
	total := h.Count()
	p := Point{
		TimeUnixNs: now,
		Count:      count,
		Sum:        sum - r.lastSum,
		P50:        bucketQuantile(h.bounds, delta, count, 0.50),
		P95:        bucketQuantile(h.bounds, delta, count, 0.95),
		P99:        bucketQuantile(h.bounds, delta, count, 0.99),
	}
	r.lastSum, r.lastCount = sum, total
	if count > 0 {
		if i, ok := deltaQuantileBucket(delta, count, 0.99); ok {
			p.Exemplar = h.exemplars[i].Load()
		}
	}
	return p
}

// bucketQuantile estimates the q-th quantile over delta bucket counts
// using the same interpolating estimator as Histogram.Quantile. NaN when
// the window is empty.
func bucketQuantile(bounds []float64, delta []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum uint64
	for i := range delta {
		n := delta[i]
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i == len(bounds) { // +Inf bucket: clamp to last bound
				return bounds[len(bounds)-1]
			}
			hi := bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return bounds[len(bounds)-1]
}

// deltaQuantileBucket returns the index of the delta bucket owning the
// q-th quantile of the window.
func deltaQuantileBucket(delta []uint64, total uint64, q float64) (int, bool) {
	if total == 0 {
		return 0, false
	}
	rank := q * float64(total)
	var cum uint64
	for i := range delta {
		n := delta[i]
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			return i, true
		}
		cum += n
	}
	return len(delta) - 1, true
}

// RangeQuery selects a slice of history. The zero value selects everything
// the store retains.
type RangeQuery struct {
	// Metric filters by exact series key (name{labels}) or bare family
	// name; empty selects every series.
	Metric string
	// Start and End bound the selected points (inclusive, unix nanos; 0
	// disables that bound).
	Start, End int64
	// Step downsamples: at most one point per step bucket (0 keeps all).
	Step time.Duration
}

// ParseRangeQuery reads a RangeQuery from URL query parameters:
// metric (string), start/end (unix seconds, fractional allowed), step
// (seconds or a Go duration).
func ParseRangeQuery(values url.Values) (RangeQuery, error) {
	var q RangeQuery
	q.Metric = values.Get("metric")
	parseTime := func(key string) (int64, error) {
		raw := values.Get(key)
		if raw == "" {
			return 0, nil
		}
		sec, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return 0, fmt.Errorf("telemetry: bad %s %q: %w", key, raw, err)
		}
		return int64(sec * 1e9), nil
	}
	var err error
	if q.Start, err = parseTime("start"); err != nil {
		return q, err
	}
	if q.End, err = parseTime("end"); err != nil {
		return q, err
	}
	if raw := values.Get("step"); raw != "" {
		if sec, ferr := strconv.ParseFloat(raw, 64); ferr == nil {
			q.Step = time.Duration(sec * float64(time.Second))
		} else if d, derr := time.ParseDuration(raw); derr == nil {
			q.Step = d
		} else {
			return q, fmt.Errorf("telemetry: bad step %q", raw)
		}
	}
	return q, nil
}

// Series is one series' selected history.
type Series struct {
	Key    string
	Family string
	Kind   string
	Points []Point
}

// Query returns the selected history, series in first-collection order.
func (ts *TimeSeries) Query(q RangeQuery) []Series {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var out []Series
	for _, r := range ts.order {
		if q.Metric != "" && r.key != q.Metric && r.family != q.Metric {
			continue
		}
		pts := r.snapshot(q.Start, q.End, int64(q.Step))
		if pts == nil {
			continue
		}
		out = append(out, Series{Key: r.key, Family: r.family, Kind: r.kind.String(), Points: pts})
	}
	return out
}

// Latest returns the most recent point of the series with the given key.
func (ts *TimeSeries) Latest(key string) (Point, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	r, ok := ts.byKey[key]
	if !ok {
		return Point{}, false
	}
	return r.points.last()
}

// MarshalJSON renders the series as one /metrics/history record:
// {"name", "family", "kind", "points"}. Scalar points are {"t": unixNs,
// "v": value}; histogram points carry {"t", "count", "sum", "p50", "p95",
// "p99"} plus "exemplar" (a trace ID) when the windowed-p99 bucket
// retains one.
func (s Series) MarshalJSON() ([]byte, error) {
	type scalarPoint struct {
		T int64     `json:"t"`
		V jsonFloat `json:"v"`
	}
	type histogramPoint struct {
		T        int64     `json:"t"`
		Count    uint64    `json:"count"`
		Sum      jsonFloat `json:"sum"`
		P50      jsonFloat `json:"p50"`
		P95      jsonFloat `json:"p95"`
		P99      jsonFloat `json:"p99"`
		Exemplar TraceID   `json:"exemplar,omitempty"`
	}
	points := make([]any, len(s.Points))
	for i, p := range s.Points {
		if s.Kind == kindHistogram.String() {
			points[i] = histogramPoint{p.TimeUnixNs, p.Count, jsonFloat(p.Sum),
				jsonFloat(p.P50), jsonFloat(p.P95), jsonFloat(p.P99), TraceID(p.Exemplar)}
		} else {
			points[i] = scalarPoint{p.TimeUnixNs, jsonFloat(p.Value)}
		}
	}
	return marshal(struct {
		Name   string `json:"name"`
		Family string `json:"family"`
		Kind   string `json:"kind"`
		Points []any  `json:"points"`
	}{s.Key, s.Family, s.Kind, points})
}

// History is the /metrics/history body: the store's shape and the
// selected series.
type History struct {
	WindowSeconds jsonFloat `json:"window_seconds"`
	Capacity      int       `json:"capacity"`
	Collections   uint64    `json:"collections"`
	Series        []Series  `json:"series"`
}

// History returns the selected history under the store's header.
func (ts *TimeSeries) History(q RangeQuery) History {
	series := ts.Query(q)
	if series == nil {
		series = []Series{}
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return History{jsonFloat(ts.window.Seconds()), ts.capacity, ts.collections, series}
}
