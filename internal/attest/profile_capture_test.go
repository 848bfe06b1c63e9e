package attest

import (
	"context"
	"strconv"
	"testing"
	"time"

	"pufatt/internal/telemetry"
)

// The alert→profile chain, deterministic under the step clock: a burn-rate
// alert firing must trigger exactly one capture per transition, tagged with
// the firing rule's name and the rule metric's exemplar trace ID — the
// incident's profile, alert, and trace tree all cross-referenced.
func TestAlertTriggersProfileCapture(t *testing.T) {
	o := newObsFixture(t, 83)
	o.tel.SetProfileDir(t.TempDir())
	o.tel.Profiler.SetCPUDuration(time.Millisecond)
	o.tel.Profiler.SetClock(o.clk.now)

	// Calibrate the SLO off an honest session, then shrink the burn
	// windows to a few ticks so the step clock can saturate them.
	res, _, err := o.tel.RunSessionRetry(context.Background(), o.verifier, o.prover, DefaultLink(), RetryPolicy{})
	if err != nil || !res.Accepted {
		t.Fatalf("calibration session: accepted=%v err=%v", res.Accepted, err)
	}
	slo := o.tel.Health.SLO()
	slo.MaxRTTP95 = res.Elapsed * 10
	o.tel.SetSLO(slo)
	rules := DefaultAlertRules(slo)
	for i := range rules {
		rules[i].FastWindow = 2 * obsTick
		rules[i].SlowWindow = 4 * obsTick
	}
	o.tel.Alerts.SetRules(rules)

	// Honest traffic: no alert, so no capture.
	for i := 0; i < 4; i++ {
		o.sessions(t, o.prover, 4)
		o.tick()
	}
	if n := len(o.tel.Profiler.Snapshot()); n != 0 {
		t.Fatalf("healthy traffic captured %d profiles", n)
	}

	// Jitter past δ until the RTT burn rule fires.
	jitter := NewFaultyLink(o.prover, FaultPlan{Jitter: 1, JitterSeconds: o.verifier.Delta()}, 7)
	for i := 0; i < 5; i++ {
		o.sessions(t, jitter, 4)
		o.tick()
	}
	if st := o.alert(t, "rtt-p95-burn"); st.State != telemetry.AlertFiring {
		t.Fatalf("rtt-p95-burn = %s, want firing", st.State)
	}

	// Exactly one capture per firing transition, keyed by rule name.
	if v := o.tel.ProfileCaptures.With("rtt-p95-burn").Value(); v != 1 {
		t.Fatalf("telemetry_profile_captures_total{trigger=rtt-p95-burn} = %d, want exactly 1", v)
	}
	var capture telemetry.ProfileCapture
	found := false
	for _, e := range o.tel.Profiler.Snapshot() {
		if e.Trigger == "rtt-p95-burn" {
			capture, found = e, true
		}
	}
	if !found {
		t.Fatalf("no capture for rtt-p95-burn in ring: %+v", o.tel.Profiler.Snapshot())
	}
	if capture.Alert != "rtt-p95-burn" {
		t.Fatalf("capture alert = %q, want the firing rule", capture.Alert)
	}
	if len(capture.Files) != 4 || len(capture.Skipped) != 0 {
		t.Fatalf("capture incomplete: files=%v skipped=%v", capture.Files, capture.Skipped)
	}

	// The capture's trace ID is the RTT exemplar: a real trace whose tree
	// holds the rejected session's spans.
	if capture.Trace == "" {
		t.Fatal("alert capture carries no trace ID")
	}
	id, err := strconv.ParseUint(capture.Trace, 16, 64)
	if err != nil {
		t.Fatalf("capture trace %q not a trace ID: %v", capture.Trace, err)
	}
	spans := o.tel.Tracer.ByTrace(telemetry.TraceID(id))
	if len(spans) == 0 {
		t.Fatalf("capture trace %s has no spans in the ring", capture.Trace)
	}
	hasSession := false
	for _, sp := range spans {
		if sp.Name() == "attest.session" {
			hasSession = true
		}
	}
	if !hasSession {
		t.Fatalf("capture trace %s tree lacks the attest.session span", capture.Trace)
	}

	// Recovery resolves the alert without capturing again; a re-fire
	// captures exactly once more.
	for i := 0; i < 6; i++ {
		o.sessions(t, o.prover, 4)
		o.tick()
	}
	if st := o.alert(t, "rtt-p95-burn"); st.State != telemetry.AlertResolved {
		t.Fatalf("rtt-p95-burn = %s after recovery, want resolved", st.State)
	}
	if v := o.tel.ProfileCaptures.With("rtt-p95-burn").Value(); v != 1 {
		t.Fatalf("resolution captured a profile: count = %d", v)
	}
	for i := 0; i < 5; i++ {
		o.sessions(t, jitter, 4)
		o.tick()
	}
	if st := o.alert(t, "rtt-p95-burn"); st.State != telemetry.AlertFiring {
		t.Fatalf("rtt-p95-burn = %s after re-jitter, want firing", st.State)
	}
	if v := o.tel.ProfileCaptures.With("rtt-p95-burn").Value(); v != 2 {
		t.Fatalf("rtt-p95-burn captures after re-fire = %d, want 2", v)
	}
}

// The gc-pause-vs-rtt-bound rule exists whenever a timing SLO is set, and
// judges the runtime collector's GC pause p99 against half the RTT bound —
// a GC that eats the timing margin is a protocol hazard, not ops trivia.
func TestGCPauseRuleDerivedFromSLO(t *testing.T) {
	o := newObsFixture(t, 89)
	slo := o.tel.Health.SLO()
	slo.MaxRTTP95 = 0.2
	o.tel.SetSLO(slo)
	for _, r := range o.tel.Alerts.Rules() {
		if r.Name == "gc-pause-vs-rtt-bound" {
			if r.Metric != telemetry.MetricGCPause || r.Threshold != 0.1 {
				t.Fatalf("gc-pause rule = %+v, want p99 %s vs half the RTT bound", r, telemetry.MetricGCPause)
			}
			return
		}
	}
	t.Fatal("gc-pause-vs-rtt-bound rule not derived from the timing SLO")
}
