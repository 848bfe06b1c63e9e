package pufatt

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"pufatt/internal/attest"
	"pufatt/internal/attest/cluster"
	"pufatt/internal/telemetry"
)

// metricConsumers maps every metric family on the process-wide registry to
// the one thing that reads it:
//
//   - rule:<name>   an alert rule names the family in Metric or TotalMetric
//     (probe rules are per shard; the name drops the "/<shard>" suffix);
//   - bench:<name>  bench/run.go reads the family as that per-op counter;
//   - test:<name>   that test asserts on the family's value, naming the
//     family in its body (its failure message, typically).
//
// A family nothing reads is deleted, not listed.
var metricConsumers = map[string]string{
	"attest_alert_transitions_total":          "test:TestObservabilityEndToEnd",
	"attest_alerts_firing":                    "test:TestObservabilityEndToEnd",
	"attest_backoff_seconds":                  "test:TestRetryDoSemantics",
	"attest_device_status_transitions_total":  "test:TestRTTInflationDrivesDeviceSuspect",
	"attest_faults_injected_total":            "test:TestFaultTelemetryCounters",
	"attest_frames_rejected_total":            "test:TestCodecRejectsGarbage",
	"attest_frames_sent_total":                "test:TestAdminMetricsEndpoint",
	"attest_quarantine_open_nodes":            "test:TestQuarantineLifecycleTelemetry",
	"attest_reenrollments_total":              "test:TestExhaustionTypedErrorAndRecovery",
	"attest_rejections_total":                 "rule:fnr-burn",
	"attest_rtt_seconds":                      "rule:rtt-p95-burn",
	"attest_seed_budget_low_devices":          "rule:seed-budget-low",
	"attest_sessions_total":                   "rule:session-failure-burn",
	"attest_sweep_duration_seconds":           "test:TestSweepStats",
	"attest_sweep_nodes_total":                "test:TestQuarantineLifecycleTelemetry",
	"attest_sweeps_total":                     "test:TestSweepStats",
	"attest_trace_headers_total":              "test:TestCorruptTraceExtKeepsPayload",
	"cluster_claim_audits_total":              "test:TestAuditEpochOrder",
	"cluster_failover_routes_total":           "test:TestClusterLeaderKillMidSweep",
	"cluster_inflight_sessions":               "test:TestAdmissionRejectsWhenSaturated",
	"cluster_probe_attempts_total":            "rule:cluster-probe-failure",
	"cluster_probe_failures_total":            "rule:cluster-probe-failure",
	"cluster_probe_sessions_total":            "test:TestProberDeterministicOverFaultyLink",
	"cluster_promotions_total":                "test:TestPromotionRefusesStaleReplica",
	"cluster_queue_depth":                     "test:TestAdmissionQueueAdmitsOnRelease",
	"cluster_queue_wait_seconds":              "rule:cluster-queue-wait-burn",
	"cluster_reject_overload_total":           "rule:cluster-overload-burn",
	"cluster_repl_lag_frames":                 "rule:cluster-replication-lag",
	"cluster_route_total":                     "rule:cluster-overload-burn",
	"crp_claims_total":                        "test:TestNextUnusedCountsNoSpuriousReplays",
	"crpstore_epoch_recoveries_total":         "test:TestKillAfterTransitionCompletesCutover",
	"crpstore_epoch_retired_opens_total":      "test:TestKillAfterTransitionStagingLostRetires",
	"crpstore_epoch_stagings_discarded_total": "test:TestKillBeforeTransitionDiscardsStaging",
	"crpstore_wal_torn_tails_total":           "test:TestTornWALTailTruncated",
	"ecc_corrected_bits_total":                "bench:ecc.corrected_bits_per_op",
	"ecc_recoveries_total":                    "bench:ecc.recoveries_per_op",
	"puf_batch_items_total":                   "bench:core.batch.items_per_op",
	"quarantine_transitions_total":            "test:TestQuarantineLifecycleTelemetry",
	"retry_attempts_total":                    "test:TestRetryDoSemantics",
	"retry_exhausted_total":                   "test:TestRetryDoSemantics",
	"runtime_gc_cycles_total":                 "test:TestRuntimeCollectorDeltas",
	"runtime_gc_pause_seconds":                "rule:gc-pause-vs-rtt-bound",
	"runtime_goroutines":                      "test:TestRuntimeCollectorDeltas",
	"runtime_heap_bytes":                      "test:TestRuntimeCollectorDeltas",
	"runtime_sched_latency_seconds":           "test:TestRuntimeCollectorDeltas",
	"sim_bitslice_passes_total":               "bench:sim.bitslice_passes_per_op",
	"sim_gate_evals_total":                    "bench:sim.gate_evals_per_op",
	"sim_levelized_passes_total":              "bench:sim.levelized_passes_per_op",
	"telemetry_journal_events_dropped_total":  "test:TestFlightDumpCarriesSessionTrace",
	"telemetry_profile_captures_total":        "test:TestAlertTriggersProfileCapture",
	"telemetry_spans_dropped_total":           "test:TestFlightDumpCarriesSessionTrace",
}

// TestEveryMetricHasAConsumer ties every registered metric family to its
// consumer in metricConsumers, and every consumer to something that
// exists: a registered family, an alert rule naming it, a benchmark
// counter reading it, or a test function whose body names it.
func TestEveryMetricHasAConsumer(t *testing.T) {
	var expo bytes.Buffer
	if err := telemetry.Default().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, line := range strings.Split(expo.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			registered[strings.Fields(rest)[0]] = true
		}
	}
	for _, name := range sortedKeys(registered) {
		if _, ok := metricConsumers[name]; !ok {
			t.Errorf("%s is registered but has no consumer", name)
		}
	}

	ruleMetrics := alertRuleMetrics()
	bench, err := os.ReadFile(filepath.Join("bench", "run.go"))
	if err != nil {
		t.Fatal(err)
	}
	tests := testFuncs(t)
	for _, name := range sortedKeys(metricConsumers) {
		consumer := metricConsumers[name]
		if !registered[name] {
			t.Errorf("%s (%s) is not registered", name, consumer)
			continue
		}
		kind, ref, _ := strings.Cut(consumer, ":")
		switch kind {
		case "rule":
			if !ruleMetrics[ref][name] {
				t.Errorf("%s: no alert rule %q names it", name, ref)
			}
		case "bench":
			if !bytes.Contains(bench, []byte(`{"`+ref+`", "`+name+`"}`)) {
				t.Errorf("%s: bench/run.go reads no counter %q from it", name, ref)
			}
		case "test":
			body, ok := tests[ref]
			if !ok {
				t.Errorf("%s: no test function %s", name, ref)
			} else if !strings.Contains(body, name) {
				t.Errorf("%s: %s does not name it", name, ref)
			}
		default:
			t.Errorf("%s: consumer %q is not rule:, bench: or test:", name, consumer)
		}
	}
}

// alertRuleMetrics maps each alert rule name (per-shard probe rules folded
// to their base name) to the metric families it reads. The rules are built
// with every optional threshold set, so every rule the product can run is
// present.
func alertRuleMetrics() map[string]map[string]bool {
	slo := telemetry.DefaultSLO()
	slo.MaxRTTP95 = 1
	var rules []telemetry.Rule
	rules = append(rules, attest.DefaultAlertRules(slo)...)
	rules = append(rules, cluster.DefaultClusterAlertRules(0, 1)...)
	rules = append(rules, cluster.ProbeAlertRules([]string{"shard-0"}, 0)...)
	out := map[string]map[string]bool{}
	for _, r := range rules {
		name, _, _ := strings.Cut(r.Name, "/")
		if out[name] == nil {
			out[name] = map[string]bool{}
		}
		for _, series := range []string{r.Metric, r.TotalMetric} {
			family, _, _ := strings.Cut(series, "{")
			out[name][family] = true
		}
	}
	return out
}

var testFuncDecl = regexp.MustCompile(`(?m)^func (Test\w+)\(`)

// testFuncs maps the name of every test function in the repository's
// *_test.go files to its source, from its declaration to its closing brace.
func testFuncs(t *testing.T) map[string]string {
	t.Helper()
	bodies := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllSubmatchIndex(src, -1) {
			body := src[m[0]:]
			if end := bytes.Index(body, []byte("\n}\n")); end >= 0 {
				body = body[:end]
			}
			bodies[string(src[m[2]:m[3]])] = string(body)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return bodies
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
