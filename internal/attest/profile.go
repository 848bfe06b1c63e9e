package attest

import (
	"pufatt/internal/telemetry"
)

// Alert-triggered profiling: the flight recorder answers "what did the
// protocol do" when a session fails; the profile ring answers "what was
// the process doing" when a burn-rate alert fires. The capture is named
// after the firing rule and carries the rule metric's latest windowed
// exemplar — a trace ID — so one incident yields three cross-referenced
// artifacts: the alert at /alerts, the pprof files at /debug/profiles,
// and the span tree at /debug/traces.
//
// Like flight dumps, capturing is strictly opt-in (no directory, no
// files) and never allowed to fail the control plane that triggered it.

// SetProfileDir sets the profile ring's capture directory ("" disables
// capturing, the default) — the profiling analogue of SetFlightDir.
func (t *Telemetry) SetProfileDir(dir string) { t.Profiler.SetDir(dir) }

// profileOnAlert captures a profile for a rule that just transitioned to
// firing. Runs on the alert transition hook, outside the alert manager's
// lock; the profiler's own single-flight guard absorbs a burst of
// simultaneous transitions (first one captures, the rest are dropped).
func (t *Telemetry) profileOnAlert(name string) {
	_, _, _ = t.Profiler.Capture(name, telemetry.CaptureMeta{
		Alert: name,
		Trace: t.alertExemplar(name),
	})
}

// alertExemplar resolves the firing rule's metric to its most recent
// windowed exemplar trace ID: the trace of the observation that lives in
// the bucket owning the alerted quantile — exactly the session to look at.
// Zero when the rule is unknown, the metric has no history yet, or the
// metric kind carries no exemplars (counters, gauges).
func (t *Telemetry) alertExemplar(name string) telemetry.TraceID {
	var metric string
	for _, r := range t.Alerts.Rules() {
		if r.Name == name {
			metric = r.Metric
			break
		}
	}
	if metric == "" {
		return 0
	}
	var exemplar uint64
	for _, s := range t.History.Query(telemetry.RangeQuery{Metric: metric}) {
		for i := len(s.Points) - 1; i >= 0; i-- {
			if x := s.Points[i].Exemplar; x != 0 {
				exemplar = x
				break
			}
		}
		if exemplar != 0 {
			break
		}
	}
	return telemetry.TraceID(exemplar)
}
