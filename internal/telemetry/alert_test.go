package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// alertFixture wires a registry, store, journal, and manager on one manual
// clock, with a helper that advances a collection window.
type alertFixture struct {
	reg     *Registry
	ts      *TimeSeries
	journal *Journal
	mgr     *AlertManager
	clk     *manualClock
}

func newAlertFixture() *alertFixture {
	f := &alertFixture{
		reg:     NewRegistry(),
		journal: NewJournal(64),
		clk:     &manualClock{t: time.Unix(2000, 0)},
	}
	f.ts = NewTimeSeries(f.reg, 64, 5*time.Second)
	f.ts.SetClock(f.clk.now)
	f.journal.SetClock(f.clk.now)
	f.mgr = NewAlertManager(f.ts, f.journal)
	f.mgr.SetClock(f.clk.now)
	return f
}

// tick advances one window, collects, and evaluates.
func (f *alertFixture) tick() {
	f.clk.advance(5 * time.Second)
	f.ts.Collect()
	f.mgr.Evaluate()
}

func (f *alertFixture) status(t *testing.T, name string) AlertStatus {
	t.Helper()
	for _, a := range f.mgr.Snapshot() {
		if a.Rule.Name == name {
			return a
		}
	}
	t.Fatalf("no alert %q in snapshot", name)
	return AlertStatus{}
}

// TestAlertRatioLifecycle drives the canonical failure-rate rule through
// inactive -> firing -> resolved: the fast window trips first, the alert
// waits for the slow window to agree, fires, then resolves when both calm.
func TestAlertRatioLifecycle(t *testing.T) {
	f := newAlertFixture()
	bad := f.reg.Counter("rejected_total", "rejections")
	total := f.reg.Counter("sessions_total", "sessions")
	rule := Rule{
		Name: "failure-burn", Kind: RuleRatio,
		Metric: "rejected_total", TotalMetric: "sessions_total",
		Budget:     0.10, // SLO: tolerate 10% rejections
		BurnRate:   2,    // page when burning 2x budget
		FastWindow: 10 * time.Second, SlowWindow: 30 * time.Second,
	}
	f.mgr.SetRules([]Rule{rule})

	var transitions []string
	f.mgr.OnTransition(func(name string, firing bool) {
		state := "resolved"
		if firing {
			state = "firing"
		}
		transitions = append(transitions, name+":"+state)
	})

	// Healthy traffic: 100 sessions, 1 rejection per window -> burn 0.1.
	for i := 0; i < 7; i++ {
		total.Add(100)
		bad.Add(1)
		f.tick()
	}
	if got := f.status(t, "failure-burn"); got.State != AlertInactive {
		t.Fatalf("healthy state = %v, want inactive", got.State)
	}

	// Outage: 50% rejected -> burn 5.0, over the 2x bound. The fast window
	// (2 samples) fills with bad windows after 2 ticks, but the slow window
	// (6 samples) still holds healthy history — the alert must wait.
	total.Add(100)
	bad.Add(50)
	f.tick()
	total.Add(100)
	bad.Add(50)
	f.tick()
	st := f.status(t, "failure-burn")
	if st.State == AlertFiring {
		t.Fatalf("fired after 2 bad windows; slow window should still veto (slow burn %v)", st.SlowBurn)
	}
	if st.FastBurn < 2 {
		t.Fatalf("fast burn = %v, want >= 2 after two 50%% windows", st.FastBurn)
	}

	// Keep burning until the slow window agrees.
	for i := 0; i < 4 && f.status(t, "failure-burn").State != AlertFiring; i++ {
		total.Add(100)
		bad.Add(50)
		f.tick()
	}
	st = f.status(t, "failure-burn")
	if st.State != AlertFiring {
		t.Fatalf("never fired: fast=%v slow=%v", st.FastBurn, st.SlowBurn)
	}
	if st.Fired != 1 {
		t.Errorf("fired count = %d, want 1", st.Fired)
	}

	// Recovery: clean windows until both burns drop under the bound.
	for i := 0; i < 8 && f.status(t, "failure-burn").State == AlertFiring; i++ {
		total.Add(100)
		f.tick()
	}
	st = f.status(t, "failure-burn")
	if st.State != AlertResolved {
		t.Fatalf("state after recovery = %v, want resolved", st.State)
	}
	if st.LastResolved.IsZero() || st.LastFired.IsZero() {
		t.Errorf("lifecycle timestamps missing: %+v", st)
	}

	// The hook and journal saw exactly one firing and one resolution.
	if len(transitions) != 2 || transitions[0] != "failure-burn:firing" || transitions[1] != "failure-burn:resolved" {
		t.Errorf("transitions = %v", transitions)
	}
	var alertEvents []Event
	for _, e := range f.journal.Recent() {
		if e.Kind == EventAlert {
			alertEvents = append(alertEvents, e)
		}
	}
	if len(alertEvents) != 2 {
		t.Fatalf("journal holds %d alert events, want 2", len(alertEvents))
	}
	if !strings.Contains(alertEvents[0].Detail, "firing rule=failure-burn") ||
		!strings.Contains(alertEvents[1].Detail, "resolved rule=failure-burn") {
		t.Errorf("alert event details = %q, %q", alertEvents[0].Detail, alertEvents[1].Detail)
	}
}

func TestAlertQuantileRule(t *testing.T) {
	f := newAlertFixture()
	h := f.reg.Histogram("rtt_seconds", "rtt", []float64{0.01, 0.05, 0.25, 1})
	f.mgr.SetRules([]Rule{{
		Name: "rtt-p95", Kind: RuleQuantile,
		Metric: "rtt_seconds", Quantile: 0.95, Threshold: 0.05,
		FastWindow: 10 * time.Second, SlowWindow: 10 * time.Second,
	}})

	// Fast windows: p95 well under threshold.
	for i := 0; i < 3; i++ {
		for j := 0; j < 50; j++ {
			h.Observe(0.005)
		}
		f.tick()
	}
	if st := f.status(t, "rtt-p95"); st.State != AlertInactive {
		t.Fatalf("state with fast RTT = %v", st.State)
	}

	// Inflated windows: p95 lands in the 0.25..1 bucket.
	for i := 0; i < 3; i++ {
		for j := 0; j < 50; j++ {
			h.Observe(0.5)
		}
		f.tick()
	}
	if st := f.status(t, "rtt-p95"); st.State != AlertFiring {
		t.Fatalf("quantile rule did not fire: %+v", st)
	}

	// Empty windows render no judgement: the alert resolves only once the
	// bad samples age out, and stays resolved (not inactive).
	for i := 0; i < 4; i++ {
		f.tick()
	}
	if st := f.status(t, "rtt-p95"); st.State != AlertResolved {
		t.Fatalf("state after quiet windows = %v, want resolved", st.State)
	}
}

func TestAlertGaugeRule(t *testing.T) {
	f := newAlertFixture()
	g := f.reg.Gauge("budget_low_devices", "devices under watermark")
	f.mgr.SetRules([]Rule{{
		Name: "seed-budget", Kind: RuleGaugeAbove,
		Metric: "budget_low_devices", Threshold: 0,
		FastWindow: 5 * time.Second, SlowWindow: 15 * time.Second,
	}})

	f.tick()
	if st := f.status(t, "seed-budget"); st.State != AlertInactive {
		t.Fatalf("zero gauge state = %v", st.State)
	}
	g.Set(3)
	for i := 0; i < 4; i++ {
		f.tick()
	}
	if st := f.status(t, "seed-budget"); st.State != AlertFiring {
		t.Fatalf("gauge rule did not fire: %+v", st)
	}
	g.Set(0)
	for i := 0; i < 4; i++ {
		f.tick()
	}
	if st := f.status(t, "seed-budget"); st.State != AlertResolved {
		t.Fatalf("gauge rule did not resolve: %+v", st)
	}
}

// TestAlertNoDataNoJudgement: a rule whose windows hold no samples must not
// fire (and must not resolve a firing alert into flapping).
func TestAlertNoDataNoJudgement(t *testing.T) {
	f := newAlertFixture()
	f.mgr.SetRules([]Rule{{
		Name: "ghost", Kind: RuleRatio,
		Metric: "never_total", TotalMetric: "never_either_total",
		FastWindow: 10 * time.Second, SlowWindow: 30 * time.Second,
	}})
	for i := 0; i < 5; i++ {
		f.tick()
	}
	if st := f.status(t, "ghost"); st.State != AlertInactive {
		t.Fatalf("no-data rule state = %v, want inactive", st.State)
	}
	if f.mgr.Firing() != 0 {
		t.Errorf("Firing() = %d, want 0", f.mgr.Firing())
	}
}

// TestAlertSetRulesRetainsState: re-tuning a rule keeps its firing history;
// removed rules drop out.
func TestAlertSetRulesRetainsState(t *testing.T) {
	f := newAlertFixture()
	g := f.reg.Gauge("watermark", "w")
	rule := Rule{Name: "wm", Kind: RuleGaugeAbove, Metric: "watermark",
		Threshold: 1, FastWindow: 5 * time.Second, SlowWindow: 5 * time.Second}
	f.mgr.SetRules([]Rule{rule, {Name: "doomed", Kind: RuleGaugeAbove, Metric: "watermark",
		Threshold: 100, FastWindow: 5 * time.Second, SlowWindow: 5 * time.Second}})

	g.Set(5)
	f.tick()
	if st := f.status(t, "wm"); st.State != AlertFiring {
		t.Fatalf("setup: wm not firing: %+v", st)
	}

	rule.Threshold = 2 // re-tune, keep name
	f.mgr.SetRules([]Rule{rule})
	st := f.status(t, "wm")
	if st.State != AlertFiring || st.Fired != 1 {
		t.Errorf("state lost across SetRules: %+v", st)
	}
	if st.Rule.Threshold != 2 {
		t.Errorf("threshold not re-tuned: %+v", st.Rule)
	}
	for _, a := range f.mgr.Snapshot() {
		if a.Rule.Name == "doomed" {
			t.Error("removed rule still present")
		}
	}
}

func TestAlertWriteJSON(t *testing.T) {
	f := newAlertFixture()
	g := f.reg.Gauge("watermark", "w")
	f.mgr.SetRules([]Rule{{Name: "wm", Kind: RuleGaugeAbove, Metric: "watermark",
		Threshold: 1, Budget: 0.5, BurnRate: 1.5,
		FastWindow: 5 * time.Second, SlowWindow: 15 * time.Second}})
	g.Set(5)
	f.tick()

	var b strings.Builder
	if err := WriteJSON(&b, f.mgr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc []struct {
		Name        string  `json:"name"`
		State       string  `json:"state"`
		Kind        string  `json:"kind"`
		Metric      string  `json:"metric"`
		FastWindowS float64 `json:"fast_window_seconds"`
		SlowWindowS float64 `json:"slow_window_seconds"`
		BurnBound   float64 `json:"burn_bound"`
		Budget      float64 `json:"budget"`
		FastBurn    float64 `json:"fast_burn"`
		Fired       uint64  `json:"fired"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("alerts JSON does not parse: %v\n%s", err, b.String())
	}
	if len(doc) != 1 {
		t.Fatalf("got %d alerts, want 1", len(doc))
	}
	a := doc[0]
	if a.Name != "wm" || a.Kind != "gauge-above" || a.Metric != "watermark" ||
		a.FastWindowS != 5 || a.SlowWindowS != 15 || a.BurnBound != 1.5 || a.Budget != 0.5 {
		t.Errorf("alert JSON = %+v", a)
	}
}
