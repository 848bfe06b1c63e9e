package telemetry

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Idempotent registration returns the same instrument.
	if r.Counter("requests_total", "requests") != c {
		t.Fatal("re-registration returned a new counter")
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", g.Value())
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("frames_total", "frames", "type")
	v.With("challenge").Add(3)
	v.With("response").Inc()
	if got := v.With("challenge").Value(); got != 3 {
		t.Fatalf("challenge = %d, want 3", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE frames_total counter",
		`frames_total{type="challenge"} 3`,
		`frames_total{type="response"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4, 8})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5) // uniform over [0.5, 7.5]
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if p50 := h.Quantile(0.5); p50 < 1 || p50 > 5 {
		t.Errorf("p50 = %g, want within [1, 5]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 4 || p99 > 8 {
		t.Errorf("p99 = %g, want within (4, 8]", p99)
	}
	sum := h.Summary()
	if sum.Count != 100 || sum.Sum != h.Sum() {
		t.Errorf("summary = %+v", sum)
	}
}

func TestHistogramTimerInjectableClock(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_seconds", "", []float64{0.1, 1, 10})
	// Fake clock: each reading advances 2 s. No sleeping anywhere.
	now := time.Unix(0, 0)
	clock := func() time.Time {
		now = now.Add(2 * time.Second)
		return now
	}
	stop := h.StartTimer(clock)
	stop()
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 2 {
		t.Fatalf("observed %g seconds, want 2", got)
	}
}

// parsePrometheus validates the text exposition format line by line and
// returns sample name{labels} → value.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		// Validate the name{labels} shape.
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("sample %q: unterminated label set", line)
			}
			name = key[:i]
		}
		if !validName(name) {
			t.Fatalf("sample %q: invalid metric name %q", line, name)
		}
		samples[key] = val
	}
	return samples
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Add(7)
	r.Gauge("b", "b").Set(1.25)
	h := r.HistogramVec("rtt_seconds", "round trips", []float64{0.01, 0.1, 1}, "path")
	h.With("sim").Observe(0.05)
	h.With("sim").Observe(0.5)
	h.With("sim").Observe(5)
	v := r.CounterVec("odd_total", "label escaping", "reason")
	v.With(`quote " backslash \ newline` + "\n").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := parsePrometheus(t, b.String())

	checks := map[string]float64{
		"a_total": 7,
		"b":       1.25,
		`rtt_seconds_bucket{path="sim",le="0.01"}`: 0,
		`rtt_seconds_bucket{path="sim",le="0.1"}`:  1,
		`rtt_seconds_bucket{path="sim",le="1"}`:    2,
		`rtt_seconds_bucket{path="sim",le="+Inf"}`: 3,
		`rtt_seconds_count{path="sim"}`:            3,
	}
	for key, want := range checks {
		got, ok := samples[key]
		if !ok {
			t.Errorf("missing sample %s in:\n%s", key, b.String())
			continue
		}
		if got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
	if got := samples[`rtt_seconds_sum{path="sim"}`]; math.Abs(got-5.55) > 1e-9 {
		t.Errorf("sum = %g, want 5.55", got)
	}
	if !strings.Contains(b.String(), `reason="quote \" backslash \\ newline\n"`) {
		t.Errorf("label escaping broken:\n%s", b.String())
	}
}

func TestJSONRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(2)
	r.Gauge("g", "").Set(0.5)
	h := r.Histogram("h_seconds", "", []float64{1, 10})
	h.Observe(0.5)
	var b strings.Builder
	if err := WriteJSON(&b, r.Vars()); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if decoded["c_total"].(float64) != 2 {
		t.Errorf("c_total = %v", decoded["c_total"])
	}
	hist := decoded["h_seconds"].(map[string]any)
	if hist["count"].(float64) != 1 {
		t.Errorf("histogram = %v", hist)
	}
}

func TestRegistryPanicsOnKindMismatch(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("no panic on kind mismatch")
		}
	}()
	r.Gauge("x_total", "")
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("d_seconds", "", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("counter = %d, histogram = %d, want 8000", c.Value(), h.Count())
	}
}

func TestTracerSpansDeterministic(t *testing.T) {
	tr := NewTracer(4)
	// Stepping clock: each call advances 10 ms. No sleeps.
	now := time.Unix(1000, 0)
	tr.SetClock(func() time.Time {
		now = now.Add(10 * time.Millisecond)
		return now
	})
	root := tr.StartSpan("attest.session")
	root.SetAttr("session", "1")
	child := root.Child("puf_eval")
	child.Finish()
	root.Finish()

	if d := child.Duration(); d != 10*time.Millisecond {
		t.Errorf("child duration = %v, want 10ms", d)
	}
	if d := root.Duration(); d != 30*time.Millisecond {
		t.Errorf("root duration = %v, want 30ms", d)
	}
	recent := tr.Recent()
	if len(recent) != 1 || recent[0] != root {
		t.Fatalf("recent = %v", recent)
	}
	if recent[0].Attr("session") != "1" {
		t.Error("attr lost")
	}
	kids := recent[0].Children()
	if len(kids) != 1 || kids[0].Name() != "puf_eval" {
		t.Fatalf("children = %v", kids)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(2)
	tr.SetClock(func() time.Time { return time.Unix(0, 0) })
	for i := 0; i < 5; i++ {
		s := tr.StartSpan("s" + strconv.Itoa(i))
		s.Finish()
	}
	recent := tr.Recent()
	if len(recent) != 2 {
		t.Fatalf("ring kept %d spans, want 2", len(recent))
	}
	if recent[0].Name() != "s3" || recent[1].Name() != "s4" {
		t.Errorf("ring = [%s %s], want [s3 s4]", recent[0].Name(), recent[1].Name())
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer(2)
	tr.SetClock(func() time.Time { return time.Unix(42, 0) })
	s := tr.StartSpan("root")
	s.SetAttr("verdict", "accepted")
	s.Child("verify").Finish()
	s.Finish()
	var b strings.Builder
	if err := WriteJSON(&b, tr.Recent()); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(decoded) != 1 || decoded[0]["name"] != "root" {
		t.Fatalf("decoded = %v", decoded)
	}
}
