package attest

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pufatt/internal/core"
	"pufatt/internal/mcu"
	"pufatt/internal/rng"
	"pufatt/internal/telemetry"
)

// This file holds the end-to-end observability suite: a jittery prover
// inflates round-trips past δ while an impostor chip fails the tag check,
// and the full chain is asserted — the RTT history window carries a p99
// exemplar trace ID, the flight recorder dumps the rejected sessions, the
// journal correlates the exemplar back to protocol events, the burn-rate
// alerts fire on both windows, and clean traffic resolves them again.

// stepClock is a hand-advanced clock shared by the history store and the
// alert manager, so window arithmetic in these tests is exact.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// obsFixture is a fixture with a private, clock-controlled telemetry
// bundle: nothing leaks into the package default registry, and every
// Collect/Evaluate tick is driven by the test.
type obsFixture struct {
	*fixture
	tel *Telemetry
	clk *stepClock
	dir string
}

const obsTick = 5 * time.Second

func newObsFixture(t *testing.T, seed uint64) *obsFixture {
	t.Helper()
	f := newFixture(t, seed)
	f.verifier.Device = "node-e2e"
	tracer := telemetry.NewTracer(256)
	tracer.SetIDSeed(seed)
	tel := NewTelemetry(telemetry.NewRegistry(), tracer)
	clk := &stepClock{t: time.Unix(50000, 0)}
	tel.History.SetClock(clk.now)
	tel.History.SetWindow(obsTick)
	tel.Alerts.SetClock(clk.now)
	dir := t.TempDir()
	tel.SetFlightDir(dir)
	return &obsFixture{fixture: f, tel: tel, clk: clk, dir: dir}
}

// tick advances the shared clock one collection interval, samples the
// history, and evaluates the alert rules — one StartObservability beat,
// made synchronous.
func (o *obsFixture) tick() {
	o.clk.advance(obsTick)
	o.tel.ObserveFleet()
}

// sessions runs n sessions through the retry path (the failure boundary
// that feeds device health and the flight recorder).
func (o *obsFixture) sessions(t *testing.T, agent ProverAgent, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := o.tel.RunSessionRetry(context.Background(), o.verifier, agent, DefaultLink(), RetryPolicy{}); err != nil {
			t.Fatalf("session error: %v", err)
		}
	}
}

func (o *obsFixture) alert(t *testing.T, name string) telemetry.AlertStatus {
	t.Helper()
	for _, a := range o.tel.Alerts.Snapshot() {
		if a.Rule.Name == name {
			return a
		}
	}
	t.Fatalf("alert rule %q not registered", name)
	return telemetry.AlertStatus{}
}

func TestObservabilityEndToEnd(t *testing.T) {
	o := newObsFixture(t, 41)

	// Calibrate the SLO off one honest session so the rules are tied to
	// this fixture's actual timing, then shrink the burn windows to a few
	// ticks: fast = 2 ticks, slow = 4 ticks (inclusive bounds).
	res, _, err := o.tel.RunSessionRetry(context.Background(), o.verifier, o.prover, DefaultLink(), RetryPolicy{})
	if err != nil || !res.Accepted {
		t.Fatalf("calibration session: accepted=%v err=%v", res.Accepted, err)
	}
	slo := o.tel.Health.SLO()
	slo.MaxRTTP95 = res.Elapsed * 10 // honest traffic far below, jittered far above
	o.tel.SetSLO(slo)
	rules := DefaultAlertRules(slo)
	for i := range rules {
		rules[i].FastWindow = 2 * obsTick
		rules[i].SlowWindow = 4 * obsTick
	}
	o.tel.Alerts.SetRules(rules)

	// Phase 1 — honest traffic: no alert may fire.
	for i := 0; i < 4; i++ {
		o.sessions(t, o.prover, 4)
		o.tick()
	}
	if n := o.tel.Alerts.Firing(); n != 0 {
		t.Fatalf("honest traffic fired %d alerts", n)
	}

	// Phase 2 — a jittery link inflates every round-trip past δ: sessions
	// complete but the verifier rejects on the time bound, the PUFatt
	// signature of a proxied or overclocked prover. Alongside it a
	// different chip running the same software answers on time and fails
	// the tag check: a third of each window's sessions are FNR-shaped.
	jitter := NewFaultyLink(o.prover, FaultPlan{Jitter: 1, JitterSeconds: o.verifier.Delta()}, 7)
	impostor := NewProver(o.image.Clone(), mcu.MustNewDevicePort(core.MustNewDevice(o.dev.Design(), rng.New(41), 99)), o.prover.FreqHz)
	for i := 0; i < 5; i++ {
		o.sessions(t, jitter, 4)
		o.sessions(t, impostor, 2)
		o.tick()
	}

	// The verdict counters saw the rejections as time-bound failures.
	if v := o.tel.Sessions.With("rejected").Value(); v < 20 {
		t.Fatalf("rejected sessions = %d, want >= 20", v)
	}
	if v := o.tel.Rejects.With("time_bound").Value(); v < 20 {
		t.Fatalf("time_bound rejections = %d, want >= 20", v)
	}
	if v := o.tel.Rejects.With("tag_mismatch").Value(); v != 10 {
		t.Fatalf("tag_mismatch rejections = %d, want 10", v)
	}

	// The RTT history's latest window carries a p99 exemplar trace ID.
	point, ok := o.tel.History.Latest("attest_rtt_seconds")
	if !ok || point.Count == 0 {
		t.Fatalf("no RTT history point (ok=%v count=%d)", ok, point.Count)
	}
	if point.Exemplar == 0 {
		t.Fatal("RTT history point has no exemplar")
	}
	exemplar := telemetry.TraceID(point.Exemplar)

	// The exemplar correlates to real protocol events in the journal…
	events := o.tel.Journal.ByTrace(exemplar)
	if len(events) == 0 {
		t.Fatalf("journal holds no events for exemplar trace %s", exemplar)
	}

	// …and to a flight-recorder dump: every time-bound rejection dumped,
	// and one of the dump headers names the exemplar's session.
	dumps, err := filepath.Glob(filepath.Join(o.dir, "flight-*-rejected.jsonl"))
	if err != nil || len(dumps) < 20 {
		t.Fatalf("flight dumps = %d (err=%v), want >= 20", len(dumps), err)
	}
	foundDump := false
	for _, dump := range dumps {
		data, rerr := os.ReadFile(dump)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if strings.Contains(string(data), "trace="+exemplar.String()) {
			foundDump = true
			break
		}
	}
	if !foundDump {
		t.Fatalf("no flight dump carries exemplar trace %s", exemplar)
	}

	// Both burn windows are saturated: the timing, failure and FNR alerts
	// fire.
	for _, name := range []string{"rtt-p95-burn", "session-failure-burn", "fnr-burn"} {
		if st := o.alert(t, name); st.State != telemetry.AlertFiring {
			t.Fatalf("%s = %s after sustained jitter, want firing", name, st.State)
		}
	}
	if v := o.tel.AlertsFiring.Value(); v < 3 {
		t.Fatalf("attest_alerts_firing = %v, want >= 3", v)
	}
	if v := o.tel.AlertTransitions.With("firing").Value(); v < 3 {
		t.Fatalf("attest_alert_transitions_total{event=firing} = %d, want >= 3", v)
	}

	// The admin surface serves the same story over HTTP.
	srv := httptest.NewServer(AdminMux(o.tel))
	defer srv.Close()
	get := func(path string, v any) {
		resp, gerr := http.Get(srv.URL + path)
		if gerr != nil {
			t.Fatal(gerr)
		}
		body := readAll(t, resp)
		if err := json.Unmarshal([]byte(body), v); err != nil {
			t.Fatalf("%s: %v\n%s", path, err, body)
		}
	}
	var hist struct {
		Series []struct {
			Points []struct {
				Exemplar string `json:"exemplar"`
			} `json:"points"`
		} `json:"series"`
	}
	get("/metrics/history?metric=attest_rtt_seconds", &hist)
	served := false
	for _, s := range hist.Series {
		for _, p := range s.Points {
			served = served || p.Exemplar == exemplar.String()
		}
	}
	if !served {
		t.Fatalf("/metrics/history carries no exemplar %s: %+v", exemplar, hist)
	}
	var alerts []struct {
		Name  string `json:"name"`
		State string `json:"state"`
	}
	get("/alerts", &alerts)
	shown := false
	for _, a := range alerts {
		shown = shown || (a.Name == "rtt-p95-burn" && a.State == "firing")
	}
	if !shown {
		t.Fatalf("/alerts does not show rtt-p95-burn firing: %+v", alerts)
	}

	// Phase 3 — the link heals: once the bad points age out of the slow
	// window the alerts resolve, and the resolution stays visible.
	for i := 0; i < 6; i++ {
		o.sessions(t, o.prover, 4)
		o.tick()
	}
	if n := o.tel.Alerts.Firing(); n != 0 {
		t.Fatalf("%d alerts still firing after recovery", n)
	}
	for _, name := range []string{"rtt-p95-burn", "session-failure-burn", "fnr-burn"} {
		st := o.alert(t, name)
		if st.State != telemetry.AlertResolved {
			t.Fatalf("%s = %s after recovery, want resolved", name, st.State)
		}
		if st.Fired == 0 || st.LastResolved.IsZero() {
			t.Fatalf("%s lost its firing record: %+v", name, st)
		}
	}
	if v := o.tel.AlertsFiring.Value(); v != 0 {
		t.Fatalf("attest_alerts_firing = %v after recovery, want 0", v)
	}

	// The full lifecycle landed in the journal as typed alert events.
	firing, resolved := 0, 0
	for _, ev := range o.tel.Journal.Recent() {
		if ev.Kind != telemetry.EventAlert {
			continue
		}
		switch {
		case strings.HasPrefix(ev.Detail, "firing"):
			firing++
		case strings.HasPrefix(ev.Detail, "resolved"):
			resolved++
		}
	}
	if firing < 3 || resolved < 3 {
		t.Fatalf("journal alert events: %d firing, %d resolved, want >= 3 each", firing, resolved)
	}
}

// TestObservabilityVerifierSideAlerts drives the two rules that watch the
// verifier process rather than its sessions. A seed budget at or below the
// SLO watermark fires seed-budget-low; a GC-pause p99 above half the RTT
// bound fires gc-pause-vs-rtt-bound. Each resolves once its cause is gone:
// a fresh enrollment refills the budget, and the pauses shrink.
func TestObservabilityVerifierSideAlerts(t *testing.T) {
	o := newObsFixture(t, 45)
	res, _, err := o.tel.RunSessionRetry(context.Background(), o.verifier, o.prover, DefaultLink(), RetryPolicy{})
	if err != nil || !res.Accepted {
		t.Fatalf("calibration session: accepted=%v err=%v", res.Accepted, err)
	}
	slo := o.tel.Health.SLO()
	slo.MaxRTTP95 = res.Elapsed * 10
	slo.MinSeedBudget = 4
	o.tel.SetSLO(slo)
	rules := DefaultAlertRules(slo)
	for i := range rules {
		rules[i].FastWindow = 2 * obsTick
		rules[i].SlowWindow = 4 * obsTick
	}
	o.tel.Alerts.SetRules(rules)

	// A synthetic runtime: every sample adds ten GC pauses, observed at
	// 1 s while long is set (far above MaxRTTP95/2) and at 1 µs otherwise.
	long := false
	pauses := []uint64{0, 0, 0}
	o.tel.Runtime.SetSource(func() telemetry.RuntimeSnapshot {
		if long {
			pauses[1] += 10
		} else {
			pauses[0] += 10
		}
		return telemetry.RuntimeSnapshot{GCPauseSeconds: telemetry.RuntimeHistogram{
			Buckets: []float64{math.Inf(-1), 1e-6, 1, math.Inf(1)},
			Counts:  append([]uint64(nil), pauses...),
		}}
	})
	verifierSide := []string{"seed-budget-low", "gc-pause-vs-rtt-bound"}
	assertState := func(phase string, want telemetry.AlertState) {
		t.Helper()
		for _, name := range verifierSide {
			if st := o.alert(t, name); st.State != want {
				t.Fatalf("%s: %s = %s, want %s", phase, name, st.State, want)
			}
		}
	}

	// Phase 1 — ample budget, short pauses: neither rule fires.
	o.verifier.WithSeedBudget(budgetDB(t, o.fixture, 20))
	for i := 0; i < 5; i++ {
		o.sessions(t, o.prover, 1)
		o.tick()
	}
	assertState("healthy", telemetry.AlertInactive)

	// Phase 2 — a budget that one session leaves at 2 seeds (watermark 4)
	// and a GC-pause tail at 1 s.
	o.verifier.WithSeedBudget(budgetDB(t, o.fixture, 3))
	o.sessions(t, o.prover, 1)
	long = true
	for i := 0; i < 5; i++ {
		o.tick()
	}
	if v := o.tel.BudgetLowDevices.Value(); v != 1 {
		t.Fatalf("attest_seed_budget_low_devices = %v, want 1", v)
	}
	assertState("low budget, long pauses", telemetry.AlertFiring)

	// Phase 3 — re-enrollment refills the budget and the pauses shrink.
	o.verifier.WithSeedBudget(budgetDB(t, o.fixture, 20))
	long = false
	for i := 0; i < 6; i++ {
		o.sessions(t, o.prover, 1)
		o.tick()
	}
	if v := o.tel.BudgetLowDevices.Value(); v != 0 {
		t.Fatalf("attest_seed_budget_low_devices = %v after re-enrollment, want 0", v)
	}
	assertState("recovered", telemetry.AlertResolved)
}

// TestObservabilityHonestBaseline pins the negative: a healthy fixture
// never fires, never dumps, and still produces history with exemplars.
func TestObservabilityHonestBaseline(t *testing.T) {
	o := newObsFixture(t, 43)
	for i := 0; i < 6; i++ {
		o.sessions(t, o.prover, 3)
		o.tick()
	}
	if n := o.tel.Alerts.Firing(); n != 0 {
		t.Fatalf("honest baseline fired %d alerts", n)
	}
	dumps, _ := filepath.Glob(filepath.Join(o.dir, "flight-*.jsonl"))
	if len(dumps) != 0 {
		t.Fatalf("honest baseline wrote %d flight dumps", len(dumps))
	}
	point, ok := o.tel.History.Latest("attest_rtt_seconds")
	if !ok || point.Count == 0 || point.Exemplar == 0 {
		t.Fatalf("honest history point = %+v ok=%v, want counted point with exemplar", point, ok)
	}
	if got := o.tel.Sessions.With("accepted").Value(); got != 18 {
		t.Fatalf("accepted sessions = %d, want 18", got)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}
