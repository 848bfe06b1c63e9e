package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// SLO burn-rate alerting over the time-series store. A threshold alert
// ("p95 over bound right now") pages on blips and sleeps through slow
// leaks; a burn-rate alert asks instead how fast the error budget is being
// consumed, and requires TWO windows to agree — a fast window so a hard
// outage pages in minutes, and a slow window so a single bad sample
// cannot. The rule fires only while both windows burn at or above the
// configured rate, and resolves as soon as they no longer do; every
// transition is a typed journal event (EventAlert), so the flight recorder
// carries the alert timeline next to the protocol events that caused it.
//
// The evaluator reads only the store's windowed points — counter deltas,
// gauge samples, histogram window quantiles — so alert math is exactly
// reproducible from /metrics/history output.

// RuleKind selects how a rule turns window points into a bad fraction.
type RuleKind int

const (
	// RuleRatio divides one counter's window delta by another's: rejected
	// sessions over all sessions, FNR-shaped rejections over sessions.
	RuleRatio RuleKind = iota
	// RuleQuantile marks a window sample bad when the histogram's windowed
	// quantile exceeds Threshold — the timing-SLO rule.
	RuleQuantile
	// RuleGaugeAbove marks a window sample bad when the gauge exceeds
	// Threshold — the seed-budget watermark rule.
	RuleGaugeAbove
)

// String names the kind.
func (k RuleKind) String() string {
	switch k {
	case RuleRatio:
		return "ratio"
	case RuleQuantile:
		return "quantile"
	case RuleGaugeAbove:
		return "gauge-above"
	}
	return fmt.Sprintf("rule(%d)", int(k))
}

// Rule is one burn-rate alerting rule.
type Rule struct {
	// Name identifies the alert ("rtt-p95-burn"). Unique per manager.
	Name string
	Kind RuleKind
	// Metric is the series key driving the rule: the bad-event counter
	// (RuleRatio), the latency histogram (RuleQuantile), or the gauge
	// (RuleGaugeAbove).
	Metric string
	// TotalMetric is the denominator counter series (RuleRatio only).
	TotalMetric string
	// Quantile selects the histogram quantile judged by RuleQuantile
	// (0.95 when unset; 0.99 also stored per point).
	Quantile float64
	// Threshold is the bound a quantile or gauge sample must exceed to
	// count as bad.
	Threshold float64
	// Budget is the SLO error budget: the tolerated bad fraction. The burn
	// rate is badFraction/Budget, so burn 1.0 means "consuming exactly the
	// budget". Non-positive means 1 (burn equals the bad fraction).
	Budget float64
	// FastWindow and SlowWindow are the dual evaluation windows.
	FastWindow, SlowWindow time.Duration
	// BurnRate is the firing bound: the alert fires while BOTH windows
	// burn at or above it. Non-positive means 1.
	BurnRate float64
}

// budget returns the effective error budget.
func (r Rule) budget() float64 {
	if r.Budget <= 0 {
		return 1
	}
	return r.Budget
}

// burnBound returns the effective firing bound.
func (r Rule) burnBound() float64 {
	if r.BurnRate <= 0 {
		return 1
	}
	return r.BurnRate
}

// quantile returns the judged histogram quantile.
func (r Rule) quantile() float64 {
	if r.Quantile <= 0 {
		return 0.95
	}
	return r.Quantile
}

// AlertState is one alert's lifecycle position.
type AlertState int

const (
	// AlertInactive: never fired, or a past firing has fully cleared.
	AlertInactive AlertState = iota
	// AlertFiring: both windows currently burn at or above the bound.
	AlertFiring
	// AlertResolved: the alert fired and has since cleared; it stays
	// visibly resolved (with timestamps) rather than vanishing, so an
	// operator who looks after the storm still sees that it happened.
	AlertResolved
)

// String names the state.
func (s AlertState) String() string {
	switch s {
	case AlertInactive:
		return "inactive"
	case AlertFiring:
		return "firing"
	case AlertResolved:
		return "resolved"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// AlertStatus is a point-in-time view of one rule's alert.
type AlertStatus struct {
	Rule  Rule
	State AlertState
	// Since stamps entry into the current state.
	Since time.Time
	// FastBurn and SlowBurn are the most recently evaluated burn rates
	// (NaN before any evaluation saw data).
	FastBurn, SlowBurn float64
	// Fired counts lifetime firings.
	Fired                   uint64
	LastFired, LastResolved time.Time
}

// alertState is the manager's mutable per-rule record.
type alertState struct {
	rule     Rule
	state    AlertState
	since    time.Time
	fast     float64
	slow     float64
	fired    uint64
	lastFire time.Time
	lastRes  time.Time
}

// AlertManager evaluates burn-rate rules against a TimeSeries store.
type AlertManager struct {
	mu      sync.Mutex
	ts      *TimeSeries
	journal *Journal
	clock   func() time.Time
	rules   []Rule
	states  map[string]*alertState

	onTransition func(name string, firing bool)
}

// NewAlertManager builds a manager over the store, journalling alert
// transitions into journal (nil disables journalling).
func NewAlertManager(ts *TimeSeries, journal *Journal) *AlertManager {
	return &AlertManager{
		ts: ts, journal: journal, clock: time.Now,
		states: make(map[string]*alertState),
	}
}

// SetClock injects the manager's clock (nil restores time.Now).
func (m *AlertManager) SetClock(now func() time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	m.clock = now
}

// SetRules replaces the rule set. State for rules that keep their name is
// retained (a re-tuned threshold does not reset firing history); state for
// removed rules is dropped.
func (m *AlertManager) SetRules(rules []Rule) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rules = append([]Rule(nil), rules...)
	keep := make(map[string]*alertState, len(rules))
	for _, r := range m.rules {
		if st, ok := m.states[r.Name]; ok {
			st.rule = r
			keep[r.Name] = st
		} else {
			keep[r.Name] = &alertState{rule: r, since: m.clock()}
		}
	}
	m.states = keep
}

// Rules returns the active rule set.
func (m *AlertManager) Rules() []Rule {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Rule(nil), m.rules...)
}

// OnTransition installs a hook fired (outside the lock) on every
// firing/resolution, for metric counters.
func (m *AlertManager) OnTransition(fn func(name string, firing bool)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onTransition = fn
}

// windowBurn computes one rule's burn rate over [now-window, now].
// ok=false when the window holds no data (no judgement).
func (m *AlertManager) windowBurn(r Rule, now time.Time, window time.Duration) (burn float64, ok bool) {
	startNs := now.Add(-window).UnixNano()
	endNs := now.UnixNano()
	points := func(metric string) []Point {
		series := m.ts.Query(RangeQuery{Metric: metric, Start: startNs, End: endNs})
		var out []Point
		for _, s := range series {
			out = append(out, s.Points...)
		}
		return out
	}
	var bad, total float64
	switch r.Kind {
	case RuleRatio:
		for _, p := range points(r.Metric) {
			bad += p.Value
		}
		for _, p := range points(r.TotalMetric) {
			total += p.Value
		}
	case RuleQuantile:
		q := r.quantile()
		for _, p := range points(r.Metric) {
			if p.Count == 0 {
				continue
			}
			total++
			v := p.P95
			if q > 0.97 {
				v = p.P99
			} else if q <= 0.75 {
				v = p.P50
			}
			if v > r.Threshold {
				bad++
			}
		}
	case RuleGaugeAbove:
		for _, p := range points(r.Metric) {
			total++
			if p.Value > r.Threshold {
				bad++
			}
		}
	}
	if total <= 0 {
		return 0, false
	}
	return (bad / total) / r.budget(), true
}

// Evaluate re-judges every rule against the store at the manager clock's
// now, journalling and hooking each transition. Call it after each
// Collect.
func (m *AlertManager) Evaluate() {
	m.mu.Lock()
	now := m.clock()
	type firedEvent struct {
		name   string
		firing bool
		detail string
	}
	var events []firedEvent
	hook := m.onTransition
	for _, r := range m.rules {
		st := m.states[r.Name]
		fast, fastOK := m.windowBurn(r, now, r.FastWindow)
		slow, slowOK := m.windowBurn(r, now, r.SlowWindow)
		st.fast, st.slow = fast, slow
		firing := fastOK && slowOK && fast >= r.burnBound() && slow >= r.burnBound()
		switch {
		case firing && st.state != AlertFiring:
			st.state = AlertFiring
			st.since = now
			st.fired++
			st.lastFire = now
			events = append(events, firedEvent{r.Name, true,
				fmt.Sprintf("firing rule=%s fast_burn=%.3g slow_burn=%.3g bound=%.3g", r.Name, fast, slow, r.burnBound())})
		case !firing && st.state == AlertFiring:
			st.state = AlertResolved
			st.since = now
			st.lastRes = now
			events = append(events, firedEvent{r.Name, false,
				fmt.Sprintf("resolved rule=%s fast_burn=%.3g slow_burn=%.3g bound=%.3g", r.Name, fast, slow, r.burnBound())})
		}
	}
	journal := m.journal
	m.mu.Unlock()
	for _, e := range events {
		if journal != nil {
			journal.Append(Event{Kind: EventAlert, Detail: e.detail})
		}
		if hook != nil {
			hook(e.name, e.firing)
		}
	}
}

// Firing reports how many alerts are currently firing.
func (m *AlertManager) Firing() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, st := range m.states {
		if st.state == AlertFiring {
			n++
		}
	}
	return n
}

// Snapshot returns every rule's alert status, in rule order.
func (m *AlertManager) Snapshot() []AlertStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]AlertStatus, 0, len(m.rules))
	for _, r := range m.rules {
		st := m.states[r.Name]
		out = append(out, AlertStatus{
			Rule: r, State: st.state, Since: st.since,
			FastBurn: st.fast, SlowBurn: st.slow,
			Fired: st.fired, LastFired: st.lastFire, LastResolved: st.lastRes,
		})
	}
	return out
}

// MarshalJSON renders the status as one /alerts record. Burn rates with
// no evaluated data are null; timestamps never set are omitted.
func (a AlertStatus) MarshalJSON() ([]byte, error) {
	return marshal(struct {
		Name         string    `json:"name"`
		State        string    `json:"state"`
		Kind         string    `json:"kind"`
		Metric       string    `json:"metric"`
		FastWindow   jsonFloat `json:"fast_window_seconds"`
		SlowWindow   jsonFloat `json:"slow_window_seconds"`
		BurnBound    jsonFloat `json:"burn_bound"`
		Budget       jsonFloat `json:"budget"`
		FastBurn     jsonFloat `json:"fast_burn"`
		SlowBurn     jsonFloat `json:"slow_burn"`
		Fired        uint64    `json:"fired"`
		Since        *int64    `json:"since_unix_ns,omitempty"`
		LastFired    *int64    `json:"last_fired_unix_ns,omitempty"`
		LastResolved *int64    `json:"last_resolved_unix_ns,omitempty"`
	}{
		a.Rule.Name, a.State.String(), a.Rule.Kind.String(), a.Rule.Metric,
		jsonFloat(a.Rule.FastWindow.Seconds()), jsonFloat(a.Rule.SlowWindow.Seconds()),
		jsonFloat(a.Rule.burnBound()), jsonFloat(a.Rule.budget()),
		jsonFloat(a.FastBurn), jsonFloat(a.SlowBurn), a.Fired,
		unixNs(a.Since), unixNs(a.LastFired), unixNs(a.LastResolved),
	})
}
