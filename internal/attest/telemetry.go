package attest

import (
	"strings"
	"sync"
	"time"

	"pufatt/internal/telemetry"
)

// This file declares the attestation layer's telemetry: every metric the
// protocol, retry, fleet, and fault-injection machinery emits, gathered in
// one struct so the whole set is visible at a glance and injectable in
// tests (a fresh Telemetry over a fresh registry gives a test exact
// counters with no cross-test bleed).
//
// Metric name / label conventions (see DESIGN.md "Metrics"):
//
//   - names are snake_case with a unit or _total suffix;
//   - attestation-layer metrics carry the attest_ prefix except the
//     protocol-wide retry_* and quarantine_transitions_total names;
//   - low-cardinality labels only: fault class, frame type, rejection
//     reason class, sweep outcome, quarantine transition;
//   - every family has a consumer (an alert rule, the benchmark or a test
//     that asserts on it), listed in the root package's
//     TestEveryMetricHasAConsumer.

// Telemetry bundles the attestation layer's instruments over one registry.
type Telemetry struct {
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
	// Journal is the session flight recorder: a bounded ring of structured
	// protocol events, dumpable via /debug/journal and snapshotted to a
	// file on session failure when a flight directory is set.
	Journal *telemetry.Journal
	// Health is the per-device health registry judged against its SLO,
	// served at /devices and /healthz.
	Health *telemetry.HealthRegistry
	// History is the bounded time-series store over this bundle's registry:
	// one windowed sample per live series per Collect, served at
	// /metrics/history. Collection is driven by StartObservability (or an
	// explicit ObserveFleet in tests).
	History *telemetry.TimeSeries
	// Alerts evaluates SLO burn-rate rules against History and journals
	// firing/resolution transitions; served at /alerts.
	Alerts *telemetry.AlertManager
	// Runtime samples the Go runtime (GC pauses, sched latency, heap,
	// goroutines) into this bundle's registry on every ObserveFleet, so
	// burn-rate rules can judge the runtime's own latency against the
	// protocol time bound.
	Runtime *telemetry.RuntimeCollector
	// Profiler is the bounded on-disk profile ring (see profile.go for the
	// directory knob). Captures fire periodically at a low duty cycle and
	// whenever a burn-rate alert transitions to firing; the sidecar index
	// is served at /debug/profiles.
	Profiler *telemetry.Profiler

	// Frame codec.
	FramesSent     *telemetry.CounterVec // attest_frames_sent_total{type}
	FramesRejected *telemetry.CounterVec // attest_frames_rejected_total{reason}
	TraceHeaders   *telemetry.CounterVec // attest_trace_headers_total{event}

	// Protocol outcomes.
	RTT      *telemetry.Histogram  // attest_rtt_seconds
	Sessions *telemetry.CounterVec // attest_sessions_total{verdict}
	Rejects  *telemetry.CounterVec // attest_rejections_total{reason}

	// Retry / backoff.
	RetryAttempts  *telemetry.Counter   // retry_attempts_total
	RetryExhausted *telemetry.Counter   // retry_exhausted_total
	Backoff        *telemetry.Histogram // attest_backoff_seconds

	// Fleet sweeps.
	Sweeps                *telemetry.Counter    // attest_sweeps_total
	SweepNodes            *telemetry.CounterVec // attest_sweep_nodes_total{outcome}
	SweepDuration         *telemetry.Histogram  // attest_sweep_duration_seconds
	QuarantineTransitions *telemetry.CounterVec // quarantine_transitions_total{transition}
	QuarantineOpen        *telemetry.Gauge      // attest_quarantine_open_nodes

	// Fault injection.
	FaultsInjected *telemetry.CounterVec // attest_faults_injected_total{class}

	// Epoch lifecycle: re-enrollment pipeline phases and the seed-budget
	// watermark gauge the health registry maintains.
	Reenrolls        *telemetry.CounterVec // attest_reenrollments_total{phase}
	BudgetLowDevices *telemetry.Gauge      // attest_seed_budget_low_devices

	// Observability self-accounting: data the tracer ring and the journal
	// ring overwrote to stay bounded. Silent truncation would read as
	// "nothing happened"; these counters make it a measurable signal.
	SpansDropped  *telemetry.Counter // telemetry_spans_dropped_total
	EventsDropped *telemetry.Counter // telemetry_journal_events_dropped_total

	// Device health.
	StatusTransitions *telemetry.CounterVec // attest_device_status_transitions_total{to}

	// SLO burn-rate alerting.
	AlertTransitions *telemetry.CounterVec // attest_alert_transitions_total{event}
	AlertsFiring     *telemetry.Gauge      // attest_alerts_firing

	// Continuous profiling: completed captures by trigger.
	ProfileCaptures *telemetry.CounterVec // telemetry_profile_captures_total{trigger}

	// Flight-recorder state (see flight.go). The dump sequence number is
	// process-wide (flight.go), not per-bundle, so bundles sharing a
	// directory can never collide on a filename.
	flightMu  sync.Mutex
	flightDir string
}

// NewTelemetry registers the attestation instrument set on the registry
// (idempotent per registry) with traces on the given tracer (nil means the
// process-wide default tracer).
func NewTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) *Telemetry {
	if tracer == nil {
		tracer = telemetry.DefaultTracer()
	}
	t := &Telemetry{
		Registry: reg,
		Tracer:   tracer,
		Journal:  telemetry.NewJournal(0),
		Health:   telemetry.NewHealthRegistry(telemetry.DefaultSLO()),

		FramesSent: reg.CounterVec("attest_frames_sent_total",
			"Protocol frames written, by frame type.", "type"),
		FramesRejected: reg.CounterVec("attest_frames_rejected_total",
			"Frames rejected by the codec's validation, by reason.", "reason"),
		TraceHeaders: reg.CounterVec("attest_trace_headers_total",
			"Trace-context frame extensions, by event (sent, received, corrupt).", "event"),

		RTT: reg.Histogram("attest_rtt_seconds",
			"Verifier-observed attestation round-trip time (challenge transfer + prover compute + response transfer).",
			nil),
		Sessions: reg.CounterVec("attest_sessions_total",
			"Completed attestation sessions, by verdict.", "verdict"),
		Rejects: reg.CounterVec("attest_rejections_total",
			"Rejected sessions, by rejection reason class.", "reason"),

		RetryAttempts: reg.Counter("retry_attempts_total",
			"Attestation attempts started (first tries and retries)."),
		RetryExhausted: reg.Counter("retry_exhausted_total",
			"Retry loops that exhausted their transport-fault budget."),
		Backoff: reg.Histogram("attest_backoff_seconds",
			"Backoff delays computed between retry attempts.", nil),

		Sweeps: reg.Counter("attest_sweeps_total",
			"Fleet sweeps started."),
		SweepNodes: reg.CounterVec("attest_sweep_nodes_total",
			"Per-node sweep outcomes.", "outcome"),
		SweepDuration: reg.Histogram("attest_sweep_duration_seconds",
			"Wall-clock duration of fleet sweeps.", nil),
		QuarantineTransitions: reg.CounterVec("quarantine_transitions_total",
			"Quarantine circuit-breaker transitions, by kind.", "transition"),
		QuarantineOpen: reg.Gauge("attest_quarantine_open_nodes",
			"Nodes currently quarantined across all fleets on this registry."),

		FaultsInjected: reg.CounterVec("attest_faults_injected_total",
			"Faults injected by the deterministic harness, by class.", "class"),

		Reenrolls: reg.CounterVec("attest_reenrollments_total",
			"Rolling re-enrollment pipeline events, by phase (triggered, staged, committed, failed).", "phase"),
		BudgetLowDevices: reg.Gauge("attest_seed_budget_low_devices",
			"Devices currently at or below the seed-budget watermark (or exhausted)."),

		SpansDropped: reg.Counter("telemetry_spans_dropped_total",
			"Finished root spans evicted from the tracer ring to stay bounded."),
		EventsDropped: reg.Counter("telemetry_journal_events_dropped_total",
			"Journal events overwritten by the flight-recorder ring to stay bounded."),

		StatusTransitions: reg.CounterVec("attest_device_status_transitions_total",
			"Device health status transitions, by resulting status.", "to"),

		AlertTransitions: reg.CounterVec("attest_alert_transitions_total",
			"SLO burn-rate alert lifecycle transitions, by event (firing, resolved).", "event"),
		AlertsFiring: reg.Gauge("attest_alerts_firing",
			"Burn-rate alerts currently firing."),

		ProfileCaptures: reg.CounterVec("telemetry_profile_captures_total",
			"Completed profile-ring captures, by trigger (periodic, manual, or the firing alert's name).", "trigger"),
	}
	t.History = telemetry.NewTimeSeries(reg, 0, 0)
	t.Runtime = telemetry.NewRuntimeCollector(reg)
	t.Profiler = telemetry.NewProfiler()
	t.Profiler.SetCaptureCounters(t.ProfileCaptures)
	// The tracer and journal cannot self-register (they may outlive any one
	// registry), so this bundle attaches their drop tallies; the most
	// recently built bundle owns a shared tracer's counter.
	tracer.SetDropCounter(t.SpansDropped)
	t.Journal.SetDropCounter(t.EventsDropped)
	t.Health.OnTransition(func(device string, tr telemetry.Transition) {
		t.StatusTransitions.With(tr.To.String()).Inc()
	})
	t.Health.SetBudgetLowGauge(t.BudgetLowDevices)
	t.Alerts = telemetry.NewAlertManager(t.History, t.Journal)
	t.Alerts.SetRules(DefaultAlertRules(telemetry.DefaultSLO()))
	t.Alerts.OnTransition(func(name string, firing bool) {
		event := "resolved"
		if firing {
			event = "firing"
		}
		t.AlertTransitions.With(event).Inc()
		t.AlertsFiring.Set(float64(t.Alerts.Firing()))
		if firing {
			// Alerts trigger evidence: capture a profile named after the
			// firing rule, carrying the rule metric's latest exemplar trace
			// (see profile.go). No-op until a profile directory is set.
			t.profileOnAlert(name)
		}
	})
	return t
}

// Default burn-rate windows: the fast window pages on a hard outage within
// a minute of samples; the slow window keeps one bad collection from
// paging on its own.
const (
	DefaultAlertFastWindow = time.Minute
	DefaultAlertSlowWindow = 5 * time.Minute
)

// DefaultAlertRules derives the standard attestation alert set from an
// SLO: session failure rate, FNR-shaped (tag-mismatch) rejections, the RTT
// timing bound, and the seed-budget watermark. Rules whose SLO threshold
// is unset (zero) are omitted — an RTT rule with no bound would page on
// every sample. Budgets reuse the SLO's tolerated rates, so burn 1.0 means
// "failing exactly at the SLO limit".
func DefaultAlertRules(slo telemetry.SLO) []telemetry.Rule {
	var rules []telemetry.Rule
	if slo.MaxFailureRate > 0 {
		rules = append(rules, telemetry.Rule{
			Name: "session-failure-burn", Kind: telemetry.RuleRatio,
			Metric:      `attest_sessions_total{verdict="rejected"}`,
			TotalMetric: "attest_sessions_total",
			Budget:      slo.MaxFailureRate,
			FastWindow:  DefaultAlertFastWindow, SlowWindow: DefaultAlertSlowWindow,
		})
	}
	if slo.MaxFNR > 0 {
		rules = append(rules, telemetry.Rule{
			Name: "fnr-burn", Kind: telemetry.RuleRatio,
			Metric:      `attest_rejections_total{reason="tag_mismatch"}`,
			TotalMetric: "attest_sessions_total",
			Budget:      slo.MaxFNR,
			FastWindow:  DefaultAlertFastWindow, SlowWindow: DefaultAlertSlowWindow,
		})
	}
	if slo.MaxRTTP95 > 0 {
		rules = append(rules, telemetry.Rule{
			Name: "rtt-p95-burn", Kind: telemetry.RuleQuantile,
			Metric: "attest_rtt_seconds", Quantile: 0.95, Threshold: slo.MaxRTTP95,
			FastWindow: DefaultAlertFastWindow, SlowWindow: DefaultAlertSlowWindow,
		})
		// The runtime's own stop-the-world pauses count against the same
		// time bound the verifier enforces: a GC pause tail at half the RTT
		// budget means the process — not the network or the prover — is
		// about to push honest sessions past δ.
		rules = append(rules, telemetry.Rule{
			Name: "gc-pause-vs-rtt-bound", Kind: telemetry.RuleQuantile,
			Metric: telemetry.MetricGCPause, Quantile: 0.99, Threshold: slo.MaxRTTP95 / 2,
			FastWindow: DefaultAlertFastWindow, SlowWindow: DefaultAlertSlowWindow,
		})
	}
	rules = append(rules, telemetry.Rule{
		Name: "seed-budget-low", Kind: telemetry.RuleGaugeAbove,
		Metric: "attest_seed_budget_low_devices", Threshold: 0,
		FastWindow: DefaultAlertFastWindow, SlowWindow: DefaultAlertSlowWindow,
	})
	return rules
}

// SetSLO re-judges health against the SLO AND re-derives the burn-rate
// alert rules from it, keeping the two views of "what healthy means"
// consistent. Alert state for rules that keep their name survives.
func (t *Telemetry) SetSLO(slo telemetry.SLO) {
	t.Health.SetSLO(slo)
	t.Alerts.SetRules(DefaultAlertRules(slo))
}

// ObserveFleet takes one observability sample: sample the Go runtime into
// the registry, collect a history window, then re-evaluate the burn-rate
// alerts over it. Control-plane work — never called from the attestation
// hot path.
func (t *Telemetry) ObserveFleet() {
	t.Runtime.Sample()
	t.History.Collect()
	t.Alerts.Evaluate()
}

// StartObservability samples the fleet every interval (<=0 means the
// history store's nominal window) until the returned stop function is
// called.
func (t *Telemetry) StartObservability(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = t.History.Window()
	}
	return telemetry.Every(interval, t.ObserveFleet)
}

// tel is the package-default telemetry: every instrument registered on the
// process-wide registry, served by the admin endpoint.
var tel = NewTelemetry(telemetry.Default(), nil)

// Metrics returns the attestation layer's package-default telemetry, for
// callers that want to read counters or attach the tracer clock.
func Metrics() *Telemetry { return tel }

// Quarantine transition labels.
const (
	transitionEnter       = "enter"        // breaker opened: node newly quarantined
	transitionProbeFailed = "probe_failed" // half-open probe failed; stays quarantined
	transitionExit        = "exit"         // completed session lifted the quarantine
	transitionReinstate   = "reinstate"    // operator reinstated the node
)

// Sweep outcome labels (mirrors the SweepReport classification).
const (
	outcomeHealthy     = "healthy"
	outcomeCompromised = "compromised"
	outcomeUnreachable = "unreachable"
	outcomeQuarantined = "quarantined"
	// outcomeExhausted is the lifecycle bucket: the node's seed budget is
	// empty (or its epoch retired) and it awaits re-enrollment — neither a
	// security verdict nor an availability fault.
	outcomeExhausted = "exhausted-awaiting-reenroll"
)

// rejectionClass maps a verifier rejection reason string onto a bounded
// label set (free-form reasons would explode metric cardinality).
func rejectionClass(reason string) string {
	switch {
	case reason == "session mismatch":
		return "session_mismatch"
	case reason == "attestation response mismatch":
		return "tag_mismatch"
	case strings.HasPrefix(reason, "time bound"):
		return "time_bound"
	case strings.HasPrefix(reason, "helper"):
		return "helper_length"
	case strings.HasPrefix(reason, "reference"):
		return "reference_checksum"
	case strings.HasPrefix(reason, "epoch mismatch"):
		return "epoch_mismatch"
	}
	return "other"
}

// frameTypeName labels a frame type byte.
func frameTypeName(ftype byte) string {
	switch ftype {
	case frameChallenge:
		return "challenge"
	case frameResponse:
		return "response"
	case frameTime:
		return "time"
	}
	return "unknown"
}

// observeSession records a completed session's verdict and round-trip
// time. The session's trace ID rides along as the RTT histogram's bucket
// exemplar (one atomic store — nothing allocated on the hot path), so a
// latency spike in /metrics/history links straight to the recorded trace.
func (t *Telemetry) observeSession(res Result, trace telemetry.TraceID) {
	t.RTT.ObserveExemplar(res.Elapsed, uint64(trace))
	if res.Accepted {
		t.Sessions.With("accepted").Inc()
	} else {
		t.Sessions.With("rejected").Inc()
		t.Rejects.With(rejectionClass(res.Reason)).Inc()
	}
}

// journal appends one protocol event to the flight recorder.
func (t *Telemetry) journal(kind telemetry.EventKind, trace telemetry.TraceID, session uint64, device, detail string) {
	t.Journal.Append(telemetry.Event{
		Trace: trace, Session: session, Device: device, Kind: kind, Detail: detail,
	})
}

// observeHealth folds one completed session into the device health
// registry (no-op for an unnamed device).
func (t *Telemetry) observeHealth(device string, res Result, retries int) {
	obs := telemetry.SessionObservation{RTT: res.Elapsed, Retries: retries}
	if res.Accepted {
		obs.Outcome = telemetry.OutcomeAccepted
	} else {
		obs.Outcome = telemetry.OutcomeRejected
		obs.RejectClass = rejectionClass(res.Reason)
	}
	t.Health.Observe(device, obs)
}
