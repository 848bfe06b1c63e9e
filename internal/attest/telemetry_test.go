package attest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"

	"pufatt/internal/telemetry"
)

// switchableAgent simulates a node whose radio can be broken and repaired
// between sweeps: while broken every session fails as a transport fault.
type switchableAgent struct {
	mu     sync.Mutex
	broken bool
	inner  ProverAgent
}

func (a *switchableAgent) setBroken(b bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.broken = b
}

func (a *switchableAgent) Respond(ch Challenge) (Response, float64, error) {
	a.mu.Lock()
	broken := a.broken
	a.mu.Unlock()
	if broken {
		return Response{}, 0, Transport(errors.New("radio down"))
	}
	return a.inner.Respond(ch)
}

// newFleetTelemetry gives a test its own instrument set so counter
// assertions are exact with no bleed from other tests.
func newFleetTelemetry() *Telemetry {
	return NewTelemetry(telemetry.NewRegistry(), telemetry.NewTracer(8))
}

// TestQuarantineLifecycleTelemetry walks one node through the full breaker
// lifecycle — healthy → quarantined → failed half-open probe → successful
// probe (reinstated by recovery) → quarantined again → operator Reinstate —
// and asserts the quarantine_transitions_total counter and open-quarantine
// gauge track every step.
func TestQuarantineLifecycleTelemetry(t *testing.T) {
	f := newFixture(t, 31)
	agent := &switchableAgent{inner: f.prover, broken: true}
	fleet := NewFleet()
	T := newFleetTelemetry()
	fleet.Telemetry = T
	if err := fleet.Enroll(1, f.verifier, agent, DefaultLink()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	policy := RetryPolicy{MaxAttempts: 1}

	transitions := func(kind string) uint64 { return T.QuarantineTransitions.With(kind).Value() }

	// Threshold consecutive unreachable sweeps open the breaker.
	for i := 0; i < DefaultQuarantineThreshold; i++ {
		rep := fleet.Sweep(ctx, policy)
		if len(rep.Unreachable) != 1 {
			t.Fatalf("sweep %d: unreachable = %v, want [1]", i, rep.Unreachable)
		}
	}
	if got := fleet.Quarantined(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("quarantined = %v, want [1]", fleet.Quarantined())
	}
	if got := transitions(transitionEnter); got != 1 {
		t.Fatalf("quarantine_transitions_total{transition=enter} = %d, want 1", got)
	}
	if got := T.QuarantineOpen.Value(); got != 1 {
		t.Fatalf("attest_quarantine_open_nodes = %v, want 1", got)
	}

	// Still broken: the half-open probe fails, quarantine holds.
	rep := fleet.Sweep(ctx, policy)
	if len(rep.Quarantined) != 1 {
		t.Fatalf("probe sweep: quarantined = %v, want [1]", rep.Quarantined)
	}
	if rep.Stats.Probes != 1 {
		t.Fatalf("probe sweep: stats.Probes = %d, want 1", rep.Stats.Probes)
	}
	if got := transitions(transitionProbeFailed); got != 1 {
		t.Fatalf("probe_failed transitions = %d, want 1", got)
	}

	// Repaired: the next probe succeeds and lifts the quarantine.
	agent.setBroken(false)
	rep = fleet.Sweep(ctx, policy)
	if len(rep.Healthy) != 1 {
		t.Fatalf("recovery sweep: healthy = %v, want [1]", rep.Healthy)
	}
	if rep.Stats.QuarantineLifted != 1 {
		t.Fatalf("recovery sweep: stats.QuarantineLifted = %d, want 1", rep.Stats.QuarantineLifted)
	}
	if got := transitions(transitionExit); got != 1 {
		t.Fatalf("exit transitions = %d, want 1", got)
	}
	if got := T.QuarantineOpen.Value(); got != 0 {
		t.Fatalf("open gauge after recovery = %v, want 0", got)
	}
	if got := fleet.Quarantined(); len(got) != 0 {
		t.Fatalf("still quarantined after recovery: %v", got)
	}

	// Break it again, re-quarantine, and let the operator reinstate.
	agent.setBroken(true)
	for i := 0; i < DefaultQuarantineThreshold; i++ {
		fleet.Sweep(ctx, policy)
	}
	if got := transitions(transitionEnter); got != 2 {
		t.Fatalf("enter transitions after relapse = %d, want 2", got)
	}
	fleet.Reinstate(1)
	if got := transitions(transitionReinstate); got != 1 {
		t.Fatalf("reinstate transitions = %d, want 1", got)
	}
	if got := T.QuarantineOpen.Value(); got != 0 {
		t.Fatalf("open gauge after reinstate = %v, want 0", got)
	}

	// Per-node outcome counters saw every sweep.
	if got := T.SweepNodes.With(outcomeUnreachable).Value(); got != uint64(2*DefaultQuarantineThreshold) {
		t.Errorf("attest_sweep_nodes_total{outcome=unreachable} = %d, want %d", got, 2*DefaultQuarantineThreshold)
	}
	if got := T.SweepNodes.With(outcomeQuarantined).Value(); got != 1 {
		t.Errorf("quarantined outcomes = %d, want 1", got)
	}
	if got := T.SweepNodes.With(outcomeHealthy).Value(); got != 1 {
		t.Errorf("healthy outcomes = %d, want 1", got)
	}
}

// TestSweepStats checks the per-sweep aggregate: a healthy fleet reports
// one attempt and one completed session per node, with a coherent RTT
// summary and sweep counters ticking on the fleet's own registry.
func TestSweepStats(t *testing.T) {
	fleet, _, _ := buildFleet(t, 3)
	T := newFleetTelemetry()
	fleet.Telemetry = T
	rep := fleet.Sweep(context.Background(), RetryPolicy{MaxAttempts: 3})
	s := rep.Stats
	if s.Attempts != 3 || s.Retries != 0 || s.Sessions != 3 {
		t.Fatalf("stats = %+v, want 3 attempts, 0 retries, 3 sessions", s)
	}
	if !(s.RTTMin > 0 && s.RTTMin <= s.RTTMean && s.RTTMean <= s.RTTMax) {
		t.Fatalf("incoherent RTT summary: min=%v mean=%v max=%v", s.RTTMin, s.RTTMean, s.RTTMax)
	}
	if s.Elapsed < 0 {
		t.Fatalf("negative sweep elapsed: %v", s.Elapsed)
	}
	if got := T.Sweeps.Value(); got != 1 {
		t.Fatalf("attest_sweeps_total = %d, want 1", got)
	}
	if got := T.SweepDuration.Count(); got != 1 {
		t.Fatalf("attest_sweep_duration_seconds observations = %d, want 1", got)
	}
}

// TestSweepCancellation: a cancelled context abandons the sweep without
// touching any node's circuit breaker — cancellation is not evidence of
// unreachability.
func TestSweepCancellation(t *testing.T) {
	fleet, _, _ := buildFleet(t, 4)
	T := newFleetTelemetry()
	fleet.Telemetry = T
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	rep := fleet.Sweep(ctx, RetryPolicy{MaxAttempts: 3})
	if rep.Stats.Cancelled != 4 {
		t.Fatalf("stats.Cancelled = %d, want 4", rep.Stats.Cancelled)
	}
	if len(rep.Unreachable) != 4 {
		t.Fatalf("unreachable = %v, want all 4 nodes", rep.Unreachable)
	}
	for _, r := range rep.Results {
		if !errors.Is(r.Err, ErrCancelled) {
			t.Fatalf("node %d err = %v, want ErrCancelled", r.NodeID, r.Err)
		}
	}
	if got := T.QuarantineTransitions.With(transitionEnter).Value(); got != 0 {
		t.Fatalf("cancelled sweep moved a circuit breaker: %d enter transitions", got)
	}

	// The nodes were never given a chance: a live sweep finds them healthy.
	rep = fleet.Sweep(context.Background(), RetryPolicy{MaxAttempts: 3})
	if len(rep.Healthy) != 4 {
		t.Fatalf("post-cancel sweep healthy = %v, want all 4", rep.Healthy)
	}
}

// TestFaultTelemetryCounters asserts every injectable fault class surfaces
// in the attest_faults_injected_total counter when it fires. No sleeping:
// the injected faults are deterministic and synchronous.
func TestFaultTelemetryCounters(t *testing.T) {
	f := newFixture(t, 33)
	for _, class := range []FaultClass{FaultDrop, FaultCorrupt, FaultTruncate, FaultDelay, FaultDuplicate} {
		t.Run(class.String(), func(t *testing.T) {
			before := tel.FaultsInjected.With(class.String()).Value()
			link := NewFaultyLink(f.prover, PlanFor(class, 1, 1), 91)
			if _, err := RunSession(f.verifier, link, DefaultLink()); err == nil {
				t.Fatal("certain fault did not surface as an error")
			}
			if got := tel.FaultsInjected.With(class.String()).Value() - before; got != 1 {
				t.Fatalf("attest_faults_injected_total{class=%s} delta = %d, want 1", class, got)
			}
		})
	}
}

// TestFaultEventLog checks satellite 6: every injected fault emits one line
// of JSON carrying (class, seed, frame) — enough to replay the schedule.
func TestFaultEventLog(t *testing.T) {
	f := newFixture(t, 34)
	var buf bytes.Buffer
	link := NewFaultyLink(f.prover, FaultPlan{Drop: 1, MaxFaults: 2}, 4242)
	link.SetLog(&buf)
	policy := RetryPolicy{MaxAttempts: 3}
	res, attempts, err := RunSessionRetry(context.Background(), f.verifier, link, DefaultLink(), policy)
	if err != nil || !res.Accepted {
		t.Fatalf("retry did not recover: attempts=%d err=%v", attempts, err)
	}
	var events []FaultEvent
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev FaultEvent
		if jerr := json.Unmarshal(sc.Bytes(), &ev); jerr != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), jerr)
		}
		events = append(events, ev)
	}
	if len(events) != 2 {
		t.Fatalf("%d fault events, want 2 (MaxFaults)", len(events))
	}
	lastFrame := -1
	for i, ev := range events {
		if ev.Event != "fault_injected" || ev.Class != "drop" || ev.Seed != 4242 {
			t.Fatalf("event %d = %+v, want drop under seed 4242", i, ev)
		}
		if ev.Total != i+1 {
			t.Fatalf("event %d total = %d, want %d", i, ev.Total, i+1)
		}
		if ev.Frame <= lastFrame {
			t.Fatalf("event %d frame %d not after %d", i, ev.Frame, lastFrame)
		}
		lastFrame = ev.Frame
	}
}

// expositionLine matches one Prometheus text-format sample.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)

// TestAdminMetricsEndpoint is the acceptance check for the admin surface:
// a TCP attestation session populates the default registry, and /metrics
// then serves valid Prometheus exposition including the attest_rtt_seconds
// histogram buckets and retry_attempts_total; /debug/vars serves JSON and
// the pprof handlers answer.
func TestAdminMetricsEndpoint(t *testing.T) {
	f := newFixture(t, 35)
	srv := &Server{Agent: f.prover}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	admin, err := srv.StartAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// One real session over the wire (frames + RTT), one simulated retry
	// loop (retry_attempts_total) — both land in the default registry.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RequestContext(context.Background(), conn, f.verifier, DefaultLink())
	conn.Close()
	if err != nil || !res.Accepted {
		t.Fatalf("TCP session failed: %v / %+v", err, res)
	}
	if _, _, err := RunSessionRetry(context.Background(), f.verifier, f.prover, DefaultLink(), RetryPolicy{MaxAttempts: 1}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (string, int) {
		t.Helper()
		resp, gerr := http.Get("http://" + admin.String() + path)
		if gerr != nil {
			t.Fatalf("GET %s: %v", path, gerr)
		}
		defer resp.Body.Close()
		body, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			t.Fatalf("GET %s read: %v", path, rerr)
		}
		return string(body), resp.StatusCode
	}

	metrics, code := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var rttBuckets, retryTotal int
	for _, line := range strings.Split(metrics, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("invalid exposition line: %q", line)
		}
		if strings.HasPrefix(line, "attest_rtt_seconds_bucket{") {
			rttBuckets++
		}
		if strings.HasPrefix(line, "retry_attempts_total ") {
			retryTotal++
		}
	}
	if rttBuckets < 2 {
		t.Fatalf("attest_rtt_seconds histogram missing: %d bucket lines", rttBuckets)
	}
	if retryTotal != 1 {
		t.Fatalf("retry_attempts_total sample lines = %d, want 1", retryTotal)
	}
	if tel.FramesSent.With("challenge").Value() == 0 {
		t.Fatal("TCP session did not tick attest_frames_sent_total{type=challenge}")
	}

	vars, code := get("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := decoded["attest_rtt_seconds"]; !ok {
		t.Fatal("/debug/vars missing attest_rtt_seconds")
	}

	if _, code := get("/debug/traces"); code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", code)
	}
	if _, code := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

// TestServerCloseStopsAdmin ties the admin endpoint to the server
// lifecycle: after Close, the admin port no longer answers.
func TestServerCloseStopsAdmin(t *testing.T) {
	f := newFixture(t, 36)
	srv := &Server{Agent: f.prover}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	admin, err := srv.StartAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Dial("tcp", admin.String()); err == nil {
		t.Fatal("admin endpoint still accepting after Server.Close")
	}
}
