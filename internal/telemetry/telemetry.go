// Package telemetry is the repository's zero-dependency observability
// layer: atomic counters, gauges, and fixed-bucket histograms collected in
// a Registry that renders Prometheus text exposition format and serves
// an expvar-style map for JSON, plus lightweight spans (trace.go) for the
// challenge→PUF-eval→checksum→verdict pipeline.
//
// PUFatt's security argument is a timing argument — the verifier accepts
// only if the PUF-bound checksum arrives within δ — so latency
// distributions are first-class security telemetry here, not just
// operational garnish: the overclocking and proxy-attack analyses of the
// paper's Section 4.2 are statements about exactly the histograms this
// package maintains.
//
// Everything is safe for concurrent use, allocation-free on the hot
// observation paths, and testable without sleeping: nothing in this
// package reads the wall clock except through an injectable clock
// (Tracer.SetClock, Histogram.StartTimer).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta to the gauge value.
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat atomically adds delta to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Histogram is a fixed-bucket histogram of float64 observations. Bucket
// bounds are upper bounds in ascending order; an implicit +Inf bucket
// catches the tail. Observation is two atomic adds — no locking, no
// allocation — so it is safe on simulation hot paths.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
	total   atomic.Uint64
	// exemplars[i] holds the most recent exemplar (a trace ID) observed
	// into bucket i; zero means none. One atomic store per observation —
	// the capture is O(1) and allocation-free, so a latency spike at any
	// quantile links directly to a recorded trace without sampling
	// machinery.
	exemplars []atomic.Uint64
}

// DefBuckets is the default latency bucket layout (seconds): microseconds
// through a minute, roughly logarithmic — wide enough for both simulated
// link RTTs and real TCP round trips.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// newHistogram builds a histogram with the given ascending bucket bounds
// (nil means DefBuckets).
func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	addFloat(&h.sumBits, v)
	h.total.Add(1)
}

// ObserveExemplar records one value and retains exemplar (a trace ID) as
// the owning bucket's most recent exemplar. A zero exemplar degrades to a
// plain Observe. The cost over Observe is a single atomic store.
func (h *Histogram) ObserveExemplar(v float64, exemplar uint64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	if exemplar != 0 {
		h.exemplars[i].Store(exemplar)
	}
	addFloat(&h.sumBits, v)
	h.total.Add(1)
}

// observeN records n observations of value v in one pair of atomic adds.
// This is the bulk-insert path the runtime collector uses to replay
// runtime/metrics bucket deltas: the runtime already aggregated the
// individual events, so re-observing them one at a time would only add
// cost without adding fidelity.
func (h *Histogram) observeN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	addFloat(&h.sumBits, v*float64(n))
	h.total.Add(n)
}

// StartTimer returns a stop function that observes the elapsed time in
// seconds measured by the injected clock (nil means time.Now). Tests pass a
// fake clock so timing metrics never require sleeping.
func (h *Histogram) StartTimer(now func() time.Time) func() {
	if now == nil {
		now = time.Now
	}
	start := now()
	return func() { h.Observe(now().Sub(start).Seconds()) }
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the owning bucket, the standard Prometheus estimator. It returns
// NaN when the histogram is empty; tail estimates are clamped to the last
// finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) { // +Inf bucket: clamp to last bound
				return h.bounds[len(h.bounds)-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Summary is a point-in-time digest of a histogram.
type Summary struct {
	Count         uint64
	Sum           float64
	P50, P95, P99 float64
}

// MarshalJSON renders the digest as {count, sum, p50, p95, p99}; an
// empty histogram's quantiles are null.
func (s Summary) MarshalJSON() ([]byte, error) {
	return marshal(struct {
		Count uint64    `json:"count"`
		Sum   jsonFloat `json:"sum"`
		P50   jsonFloat `json:"p50"`
		P95   jsonFloat `json:"p95"`
		P99   jsonFloat `json:"p99"`
	}{s.Count, jsonFloat(s.Sum), jsonFloat(s.P50), jsonFloat(s.P95), jsonFloat(s.P99)})
}

// Summary digests the histogram's current state.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// --- registry ---

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled instance of a metric family.
type series struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family is one named metric with zero or more labeled series.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string
	bounds []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
	order  []*series
}

// get returns (creating on first use) the series for the label values.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s: %d label values for %d labels",
			f.name, len(values), len(f.labels)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = newHistogram(f.bounds)
	}
	f.series[key] = s
	f.order = append(f.order, s)
	return s
}

// snapshot returns the series in creation order.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*series(nil), f.order...)
}

// Registry holds metric families and renders them. Registration is
// idempotent: asking for an existing name returns the existing instrument
// (and panics if the kind or label set differs — two subsystems disagreeing
// about a metric is a bug worth failing loudly on).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that package-level
// instrumentation registers into and the admin endpoint serves.
func Default() *Registry { return defaultRegistry }

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register returns the family for name, creating it on first use.
func (r *Registry) register(name, help string, k kind, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic("telemetry: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic("telemetry: invalid label name " + strconv.Quote(l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %s re-registered as %s(%v), was %s(%v)",
				name, k, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("telemetry: metric %s re-registered with labels %v, was %v",
					name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: k,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		series: make(map[string]*series),
	}
	r.families[name] = f
	r.order = append(r.order, f)
	return f
}

// Counter returns the registry's counter with the given name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil).get(nil).counter
}

// Gauge returns the registry's gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil).get(nil).gauge
}

// Histogram returns the registry's histogram with the given name and bucket
// upper bounds (nil bounds means DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, kindHistogram, nil, bounds).get(nil).hist
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values (created on first
// use).
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).counter }

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for the given label values (created on first use).
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).gauge }

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family with the given name and
// bucket upper bounds (nil means DefBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, bounds)}
}

// With returns the histogram for the given label values (created on first
// use).
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).hist }

// --- rendering ---

// snapshotFamilies returns the families sorted by name for deterministic
// output.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// escapeLabel escapes a label value per the Prometheus exposition format.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// labelString renders {k1="v1",k2="v2"} for the given names/values plus an
// optional extra pair (the histogram "le" label); empty when no labels.
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, names[i], escapeLabel(values[i]))
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraK, escapeLabel(extraV))
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers, counter and
// gauge samples, and the _bucket/_sum/_count expansion for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.snapshot() {
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n",
					f.name, labelString(f.labels, s.values, "", ""), s.counter.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n",
					f.name, labelString(f.labels, s.values, "", ""), formatFloat(s.gauge.Value()))
			case kindHistogram:
				err = writePromHistogram(w, f, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, f *family, s *series) error {
	h := s.hist
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, labelString(f.labels, s.values, "le", formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		f.name, labelString(f.labels, s.values, "le", "+Inf"), cum); err != nil {
		return err
	}
	base := labelString(f.labels, s.values, "", "")
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, cum)
	return err
}

// Vars returns every registered metric keyed by name (or name{labels}) —
// the expvar-style /debug/vars body: counters map to their count, gauges
// to their value, histograms to their Summary.
func (r *Registry) Vars() map[string]any {
	out := make(map[string]any)
	for _, f := range r.snapshotFamilies() {
		for _, s := range f.snapshot() {
			key := f.name + labelString(f.labels, s.values, "", "")
			switch f.kind {
			case kindCounter:
				out[key] = s.counter.Value()
			case kindGauge:
				out[key] = jsonFloat(s.gauge.Value())
			case kindHistogram:
				out[key] = s.hist.Summary()
			}
		}
	}
	return out
}
