package cluster

import (
	"sort"
	"sync"
	"time"

	"pufatt/internal/telemetry"
)

// Cluster instruments, gathered in a Metrics struct so a test (or an
// embedding process with several clusters) can record into its own
// registry; the package default registers on the process-wide registry so
// the observability layer — /metrics, windowed history, burn-rate alerts,
// federation — picks the distributed tier up with no extra wiring. Label cardinality is bounded by the shard count (operator
// configuration, not data).

// queueWaitBuckets resolve admission queue waits: from the microsecond
// blips of a contended-but-healthy gate up through the multi-second waits
// that push an honest session past the protocol time bound.
var queueWaitBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 30,
}

// Metrics is the cluster tier's instrument set over one registry.
type Metrics struct {
	RouteTotal     *telemetry.CounterVec // cluster_route_total{shard}
	FailoverRoutes *telemetry.Counter    // cluster_failover_routes_total
	Promotions     *telemetry.CounterVec // cluster_promotions_total{result}
	ReplLag        *telemetry.Gauge      // cluster_repl_lag_frames
	InFlight       *telemetry.GaugeVec   // cluster_inflight_sessions{shard}
	QueueDepth     *telemetry.GaugeVec   // cluster_queue_depth{shard}
	RejectOverload *telemetry.CounterVec // cluster_reject_overload_total{shard}
	Audits         *telemetry.CounterVec // cluster_claim_audits_total{outcome}

	// QueueWait observes only sessions that actually waited in the
	// admission queue — the uncontended fast path would otherwise bury the
	// signal in zeros — and carries the session's trace ID as its bucket
	// exemplar, so a p99 spike in /metrics/history links straight to a
	// trace whose queue.wait span shows the wait.
	QueueWait *telemetry.Histogram // cluster_queue_wait_seconds

	// Synthetic canary probing.
	ProbeAttempts *telemetry.CounterVec // cluster_probe_attempts_total{shard}
	ProbeFailures *telemetry.CounterVec // cluster_probe_failures_total{shard}
	ProbeSessions *telemetry.CounterVec // cluster_probe_sessions_total{shard,verdict}

	// lag tracks each device group's worst live-follower lag so the gauge
	// can report the max across groups. Setting the gauge per group let a
	// healthy group's zero overwrite a lagging group's value — in a
	// multi-group process the cluster-replication-lag alert could be masked
	// by whichever group replicated last.
	lagMu sync.Mutex
	lag   map[int]uint64
}

// NewMetrics registers the cluster instrument set on the registry
// (idempotent per registry, like every instrument constructor).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		RouteTotal: reg.CounterVec("cluster_route_total",
			"Attestation requests routed by the consistent-hash ring, by shard.", "shard"),
		FailoverRoutes: reg.Counter("cluster_failover_routes_total",
			"Requests whose ring-owner shard was down and were served by a promoted replica."),
		Promotions: reg.CounterVec("cluster_promotions_total",
			"Leader promotion attempts, by result (promoted, stale_refused, down, not_replica).", "result"),
		ReplLag: reg.Gauge("cluster_repl_lag_frames",
			"Worst live-follower lag behind the acknowledged high-water mark, in frames (max across enrolled groups)."),
		InFlight: reg.GaugeVec("cluster_inflight_sessions",
			"Sessions currently admitted past a shard's admission gate.", "shard"),
		QueueDepth: reg.GaugeVec("cluster_queue_depth",
			"Sessions currently waiting in a shard's admission queue.", "shard"),
		RejectOverload: reg.CounterVec("cluster_reject_overload_total",
			"Sessions rejected by admission control (503-style; never retried as transport).", "shard"),
		Audits: reg.CounterVec("cluster_claim_audits_total",
			"Merged claim-log audits, by outcome (clean, violations).", "outcome"),

		QueueWait: reg.Histogram("cluster_queue_wait_seconds",
			"Admission queue wait for sessions that queued (uncontended admissions are not observed).",
			queueWaitBuckets),

		ProbeAttempts: reg.CounterVec("cluster_probe_attempts_total",
			"Synthetic canary probe sessions attempted, by shard.", "shard"),
		ProbeFailures: reg.CounterVec("cluster_probe_failures_total",
			"Synthetic canary probes that did not end in an accepted verdict, by shard.", "shard"),
		ProbeSessions: reg.CounterVec("cluster_probe_sessions_total",
			"Synthetic canary probe outcomes, by shard and verdict (accepted, rejected, transport, overload, error).",
			"shard", "verdict"),

		lag: make(map[int]uint64),
	}
}

// defaultMetrics serves the package-wide default cluster instruments.
var defaultMetrics = NewMetrics(telemetry.Default())

// observeLag folds one group's worst live-follower lag into the gauge,
// which reports the maximum across all groups (zero clears the group).
func (m *Metrics) observeLag(device int, lag uint64) {
	m.lagMu.Lock()
	defer m.lagMu.Unlock()
	if lag == 0 {
		delete(m.lag, device)
	} else {
		m.lag[device] = lag
	}
	var worst uint64
	for _, l := range m.lag {
		if l > worst {
			worst = l
		}
	}
	m.ReplLag.Set(float64(worst))
}

// Default burn-rate windows for the cluster rules, matching the
// attestation layer's.
const (
	clusterAlertFastWindow = time.Minute
	clusterAlertSlowWindow = 5 * time.Minute
)

// DefaultClusterAlertRules derives the distributed tier's burn-rate alert
// set, sized by the same fast/slow windows the attestation rules use:
//
//   - overload-burn: the fraction of routed requests rejected by
//     admission control exceeds budget (capacity, not correctness);
//   - replication-lag: any live follower is behind the acknowledged
//     high-water mark — with synchronous replication, a nonzero lag means
//     a follower is down or a claim cycle failed mid-flight, which is
//     exactly the state where the next failover trips ErrStaleReplica;
//   - queue-wait-burn (when queueWaitP99Bound > 0): the p99 admission
//     queue wait exceeds the bound. Queue wait precedes the session clock,
//     but a shard whose queue waits approach the protocol time bound is
//     one load spike away from timing out honest provers — alert on the
//     leading indicator.
//
// Feed them to an AlertManager alongside attest.DefaultAlertRules (rule
// names are disjoint).
func DefaultClusterAlertRules(overloadBudget, queueWaitP99Bound float64) []telemetry.Rule {
	if overloadBudget <= 0 {
		overloadBudget = 0.05
	}
	rules := []telemetry.Rule{
		{
			Name: "cluster-overload-burn", Kind: telemetry.RuleRatio,
			Metric:      "cluster_reject_overload_total",
			TotalMetric: "cluster_route_total",
			Budget:      overloadBudget,
			FastWindow:  clusterAlertFastWindow, SlowWindow: clusterAlertSlowWindow,
		},
		{
			Name: "cluster-replication-lag", Kind: telemetry.RuleGaugeAbove,
			Metric: "cluster_repl_lag_frames", Threshold: 0,
			FastWindow: clusterAlertFastWindow, SlowWindow: clusterAlertSlowWindow,
		},
	}
	if queueWaitP99Bound > 0 {
		rules = append(rules, telemetry.Rule{
			Name: "cluster-queue-wait-burn", Kind: telemetry.RuleQuantile,
			Metric: "cluster_queue_wait_seconds", Quantile: 0.99, Threshold: queueWaitP99Bound,
			FastWindow: clusterAlertFastWindow, SlowWindow: clusterAlertSlowWindow,
		})
	}
	return rules
}

// ProbeAlertRules derives one probe-failure burn rule per shard: the
// fraction of canary probes on that shard not ending in an accepted
// verdict exceeds budget (<=0 means any failure burns). Per-shard rules —
// rather than one aggregate — because the probe's whole point is flagging
// a single sick shard even when the others dilute the fleet-wide ratio.
func ProbeAlertRules(shards []string, budget float64) []telemetry.Rule {
	if budget <= 0 {
		budget = 0.01
	}
	ordered := append([]string(nil), shards...)
	sort.Strings(ordered)
	rules := make([]telemetry.Rule, 0, len(ordered))
	for _, sid := range ordered {
		rules = append(rules, telemetry.Rule{
			Name: "cluster-probe-failure/" + sid, Kind: telemetry.RuleRatio,
			Metric:      `cluster_probe_failures_total{shard="` + sid + `"}`,
			TotalMetric: `cluster_probe_attempts_total{shard="` + sid + `"}`,
			Budget:      budget,
			FastWindow:  clusterAlertFastWindow, SlowWindow: clusterAlertSlowWindow,
		})
	}
	return rules
}
