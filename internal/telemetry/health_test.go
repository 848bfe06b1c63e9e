package telemetry

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// healthSLO is the test threshold set: judge after 4 records, timing SLO
// at 100 ms p95.
func healthSLO() SLO {
	return SLO{
		MinSessions:      4,
		Window:           16,
		MaxRTTP95:        0.100,
		MaxFailureRate:   0.5,
		MaxFNR:           0.25,
		MaxTransportRate: 0.5,
		MaxRetryRate:     2,
	}
}

func acceptedAt(rtt float64) SessionObservation {
	return SessionObservation{Outcome: OutcomeAccepted, RTT: rtt}
}

func TestHealthCleanDeviceStaysOK(t *testing.T) {
	h := NewHealthRegistry(healthSLO())
	h.SetClock(fakeClock(time.Unix(0, 0), time.Second))
	for i := 0; i < 50; i++ {
		h.Observe("clean", acceptedAt(0.020))
	}
	d, ok := h.Get("clean")
	if !ok || d.Status != StatusOK {
		t.Fatalf("clean device status = %v, want ok", d.Status)
	}
	if len(d.Transitions) != 0 {
		t.Fatalf("clean device logged %d transitions, want 0 (no false transitions)", len(d.Transitions))
	}
	if d.Sessions != 50 || d.Accepted != 50 {
		t.Fatalf("counters: %+v", d)
	}
}

// TestHealthRTTInflationTripsSuspect is the overclocking/proxy signature:
// every session still ACCEPTED (inflation stays under δ), yet the device
// must go suspect from the timing SLO alone.
func TestHealthRTTInflationTripsSuspect(t *testing.T) {
	h := NewHealthRegistry(healthSLO())
	h.SetClock(fakeClock(time.Unix(0, 0), time.Second))
	for i := 0; i < 20; i++ {
		h.Observe("slow", acceptedAt(0.250)) // 2.5× the 100 ms SLO
	}
	d, _ := h.Get("slow")
	if d.Status != StatusSuspect {
		t.Fatalf("inflated device status = %v, want suspect (reasons %v)", d.Status, d.Reasons)
	}
	if d.Rejected != 0 {
		t.Fatalf("rejected = %d — suspect must come from timing alone", d.Rejected)
	}
	if len(d.Reasons) != 1 || !strings.Contains(d.Reasons[0], "rtt p95") {
		t.Fatalf("reasons = %v, want a single rtt p95 violation", d.Reasons)
	}
	// Exactly one transition, ok → suspect, and not before MinSessions.
	if len(d.Transitions) != 1 {
		t.Fatalf("transitions = %+v, want exactly one", d.Transitions)
	}
	tr := d.Transitions[0]
	if tr.From != StatusOK || tr.To != StatusSuspect {
		t.Fatalf("transition %v → %v, want ok → suspect", tr.From, tr.To)
	}
}

func TestHealthMinSessionsGatesJudgement(t *testing.T) {
	h := NewHealthRegistry(healthSLO())
	for i := 0; i < 3; i++ { // below MinSessions=4
		h.Observe("young", acceptedAt(10.0)) // way over the timing SLO
	}
	if got := h.Status("young"); got != StatusOK {
		t.Fatalf("status before MinSessions = %v, want ok", got)
	}
	h.Observe("young", acceptedAt(10.0)) // 4th record: judgement begins
	if got := h.Status("young"); got != StatusSuspect {
		t.Fatalf("status after MinSessions = %v, want suspect", got)
	}
}

func TestHealthTransportDegradesNotSuspects(t *testing.T) {
	h := NewHealthRegistry(healthSLO())
	for i := 0; i < 10; i++ {
		h.Observe("flaky", SessionObservation{Outcome: OutcomeTransport, Retries: 3})
	}
	d, _ := h.Get("flaky")
	if d.Status != StatusDegraded {
		t.Fatalf("unreachable device status = %v, want degraded (reasons %v)", d.Status, d.Reasons)
	}
	if d.Transport != 10 || d.Sessions != 0 {
		t.Fatalf("counters: %+v", d)
	}
}

func TestHealthFNRDriftTripsSuspect(t *testing.T) {
	h := NewHealthRegistry(healthSLO())
	// An aging device: accepted at first, then a growing fraction of
	// tag-mismatch rejections (the honest-device FNR signature).
	for i := 0; i < 8; i++ {
		h.Observe("aging", acceptedAt(0.020))
	}
	if h.Status("aging") != StatusOK {
		t.Fatal("device suspect before drift")
	}
	for i := 0; i < 12; i++ {
		h.Observe("aging", SessionObservation{Outcome: OutcomeRejected, RTT: 0.020, RejectClass: "tag_mismatch"})
	}
	d, _ := h.Get("aging")
	if d.Status != StatusSuspect {
		t.Fatalf("drifted device status = %v (fnr %.3f, reasons %v), want suspect", d.Status, d.FNREstimate, d.Reasons)
	}
	if d.FNREstimate <= 0.25 {
		t.Fatalf("fnr estimate %.3f did not cross the 0.25 SLO", d.FNREstimate)
	}
}

func TestHealthQuarantineDegrades(t *testing.T) {
	h := NewHealthRegistry(healthSLO())
	for i := 0; i < 6; i++ {
		h.Observe("jailed", acceptedAt(0.020))
	}
	h.ObserveQuarantine("jailed", true)
	if got := h.Status("jailed"); got != StatusDegraded {
		t.Fatalf("quarantined status = %v, want degraded", got)
	}
	h.ObserveQuarantine("jailed", false)
	if got := h.Status("jailed"); got != StatusOK {
		t.Fatalf("post-quarantine status = %v, want ok", got)
	}
	d, _ := h.Get("jailed")
	if d.QuarantineCount != 1 {
		t.Fatalf("quarantine count = %d, want 1", d.QuarantineCount)
	}
}

func TestHealthSeedBurnLedger(t *testing.T) {
	h := NewHealthRegistry(healthSLO())
	for remaining := 9; remaining >= 5; remaining-- {
		h.ObserveSeedClaim("budgeted", remaining)
	}
	d, _ := h.Get("budgeted")
	if d.SeedsClaimed != 5 || d.SeedsRemaining != 5 {
		t.Fatalf("burn ledger: claimed %d remaining %d, want 5/5", d.SeedsClaimed, d.SeedsRemaining)
	}
	if dh, _ := h.Get("budgeted"); dh.Status != StatusOK {
		t.Fatalf("seed claims alone must not change status, got %v", dh.Status)
	}
}

func TestHealthTransitionHookFires(t *testing.T) {
	h := NewHealthRegistry(healthSLO())
	var fired []Transition
	h.OnTransition(func(device string, tr Transition) {
		if device != "hooked" {
			t.Errorf("hook device = %q", device)
		}
		fired = append(fired, tr)
	})
	for i := 0; i < 6; i++ {
		h.Observe("hooked", acceptedAt(0.500))
	}
	if len(fired) != 1 || fired[0].To != StatusSuspect {
		t.Fatalf("hook fired %d times (%+v), want once to suspect", len(fired), fired)
	}
}

func TestHealthSummaryAndJSON(t *testing.T) {
	h := NewHealthRegistry(healthSLO())
	for i := 0; i < 6; i++ {
		h.Observe("a-ok", acceptedAt(0.020))
		h.Observe("b-slow", acceptedAt(0.500))
		h.Observe("c-dead", SessionObservation{Outcome: OutcomeTransport})
	}
	sum := h.Summary()
	if sum.Devices != 3 || sum.OK != 1 || sum.Suspect != 1 || sum.Degraded != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Status() != StatusSuspect {
		t.Fatalf("worst status = %v, want suspect", sum.Status())
	}
	var sb strings.Builder
	if err := WriteJSON(&sb, h.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var devices []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &devices); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(devices) != 3 || devices[0]["device"] != "a-ok" || devices[1]["status"] != "suspect" {
		t.Fatalf("devices JSON = %v", devices)
	}
}

// healthBudgetSLO is healthSLO plus the PR 6 seed-budget watermark.
func healthBudgetSLO(watermark int) SLO {
	slo := healthSLO()
	slo.MinSeedBudget = watermark
	return slo
}

func TestHealthSeedBudgetLowDegrades(t *testing.T) {
	h := NewHealthRegistry(healthBudgetSLO(3))
	for i := 0; i < 6; i++ {
		h.Observe("budgeted", acceptedAt(0.020))
	}
	h.ObserveSeedClaim("budgeted", 10)
	if got := h.Status("budgeted"); got != StatusOK {
		t.Fatalf("healthy budget status = %v, want ok", got)
	}
	for remaining := 9; remaining >= 3; remaining-- {
		h.ObserveSeedClaim("budgeted", remaining)
	}
	d, _ := h.Get("budgeted")
	if d.Status != StatusDegraded {
		t.Fatalf("at the watermark: status = %v (reasons %v), want degraded", d.Status, d.Reasons)
	}
	found := false
	for _, r := range d.Reasons {
		if strings.Contains(r, "seed budget low") {
			found = true
		}
	}
	if !found {
		t.Fatalf("reasons = %v, want a seed-budget-low violation", d.Reasons)
	}
	// A fresh epoch's enrollment lifts the budget and clears the flag.
	h.ObserveSeedClaim("budgeted", 12)
	if got := h.Status("budgeted"); got != StatusOK {
		t.Fatalf("re-enrolled status = %v, want ok", got)
	}
}

func TestHealthBudgetExhaustedAwaitingReenroll(t *testing.T) {
	h := NewHealthRegistry(healthSLO())
	for i := 0; i < 6; i++ {
		h.Observe("dry", acceptedAt(0.020))
	}
	h.ObserveBudgetExhausted("dry")
	d, _ := h.Get("dry")
	if d.Status != StatusAwaitingReenroll {
		t.Fatalf("exhausted status = %v (reasons %v), want awaiting-reenroll", d.Status, d.Reasons)
	}
	if !d.BudgetExhausted || d.SeedsRemaining != 0 {
		t.Fatalf("snapshot: %+v", d)
	}
	sum := h.Summary()
	if sum.AwaitingReenroll != 1 || sum.Status() != StatusAwaitingReenroll {
		t.Fatalf("summary = %+v", sum)
	}
	// The first claim against the fresh epoch recovers the device.
	h.ObserveSeedClaim("dry", 8)
	if got := h.Status("dry"); got != StatusOK {
		t.Fatalf("recovered status = %v, want ok", got)
	}
}

// TestHealthAwaitingReenrollAntiFlap: the MinSessions gate applies to the
// lifecycle states exactly as it does to SLO judgements — a device that
// exhausts during its first few observations is not flagged yet.
func TestHealthAwaitingReenrollAntiFlap(t *testing.T) {
	h := NewHealthRegistry(healthSLO()) // MinSessions = 4
	h.Observe("young", acceptedAt(0.020))
	h.ObserveBudgetExhausted("young")
	if got := h.Status("young"); got != StatusOK {
		t.Fatalf("pre-MinSessions exhaustion judged: %v", got)
	}
	for i := 0; i < 4; i++ {
		h.Observe("young", acceptedAt(0.020))
	}
	if got := h.Status("young"); got != StatusAwaitingReenroll {
		t.Fatalf("post-MinSessions status = %v, want awaiting-reenroll", got)
	}
}

// TestHealthSuspectOutranksAwaitingReenroll: an integrity signal must not
// be masked by the (benign) lifecycle state.
func TestHealthSuspectOutranksAwaitingReenroll(t *testing.T) {
	h := NewHealthRegistry(healthSLO())
	for i := 0; i < 8; i++ {
		h.Observe("evil", acceptedAt(0.500)) // far over the RTT SLO
	}
	h.ObserveBudgetExhausted("evil")
	if got := h.Status("evil"); got != StatusSuspect {
		t.Fatalf("status = %v, want suspect to dominate awaiting-reenroll", got)
	}
}

func TestHealthBudgetLowGaugeTracksDevices(t *testing.T) {
	h := NewHealthRegistry(healthBudgetSLO(2))
	g := NewRegistry().Gauge("test_budget_low", "")
	h.SetBudgetLowGauge(g)
	h.ObserveSeedClaim("a", 10)
	h.ObserveSeedClaim("b", 10)
	if g.Value() != 0 {
		t.Fatalf("gauge = %v with healthy budgets", g.Value())
	}
	h.ObserveSeedClaim("a", 2) // at the watermark
	h.ObserveBudgetExhausted("b")
	if g.Value() != 2 {
		t.Fatalf("gauge = %v, want 2 (one low, one exhausted)", g.Value())
	}
	// Repeat observations must not double-count.
	h.ObserveSeedClaim("a", 1)
	h.ObserveBudgetExhausted("b")
	if g.Value() != 2 {
		t.Fatalf("gauge = %v after repeats, want 2", g.Value())
	}
	h.ObserveSeedClaim("a", 9) // re-enrolled
	h.ObserveSeedClaim("b", 9)
	if g.Value() != 0 {
		t.Fatalf("gauge = %v after recovery, want 0", g.Value())
	}
}

// TestHealthSnapshotConsistencyUnderTransitions hammers the registry with
// writers driving devices through status transitions while readers take
// snapshots. Every snapshot must be internally consistent — lifetime
// counters that add up, transitions in sequence order, and a summary whose
// per-status counts cover every device — no matter when it was cut.
func TestHealthSnapshotConsistencyUnderTransitions(t *testing.T) {
	h := NewHealthRegistry(healthSLO())
	const devices = 4
	const perWriter = 200

	done := make(chan struct{})
	var writers sync.WaitGroup
	for d := 0; d < devices; d++ {
		writers.Add(1)
		go func(d int) {
			defer writers.Done()
			name := fmt.Sprintf("dev-%d", d)
			for i := 0; i < perWriter; i++ {
				// Alternate clean and dirty stretches so statuses keep
				// flipping between ok, degraded, and suspect.
				obs := SessionObservation{Outcome: OutcomeAccepted, RTT: 0.010}
				switch {
				case i/20%2 == 1 && i%2 == 0:
					obs = SessionObservation{Outcome: OutcomeRejected, RTT: 0.010, RejectClass: "tag_mismatch"}
				case i%7 == 3:
					obs = SessionObservation{Outcome: OutcomeTransport, Retries: 1}
				}
				h.Observe(name, obs)
			}
		}(d)
	}

	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, d := range h.Snapshot() {
					if d.Sessions != d.Accepted+d.Rejected {
						t.Errorf("%s: sessions %d != accepted %d + rejected %d",
							d.Device, d.Sessions, d.Accepted, d.Rejected)
					}
					if d.WindowRecords < 0 || d.FailureRate < 0 || d.FailureRate > 1 {
						t.Errorf("%s: window rates out of range: %+v", d.Device, d)
					}
					if d.Status != StatusOK && d.Sessions+d.Transport > 0 && len(d.Reasons) == 0 {
						t.Errorf("%s: status %s with no reasons", d.Device, d.Status)
					}
					for i := 1; i < len(d.Transitions); i++ {
						if d.Transitions[i].Seq <= d.Transitions[i-1].Seq {
							t.Errorf("%s: transitions out of order: %+v", d.Device, d.Transitions)
						}
					}
				}
				sum := h.Summary()
				if sum.OK+sum.Degraded+sum.AwaitingReenroll+sum.Suspect != sum.Devices {
					t.Errorf("summary does not partition devices: %+v", sum)
				}
			}
		}()
	}

	writers.Wait()
	close(done)
	readers.Wait()

	// After the dust settles, every device holds its full lifetime tally.
	for _, d := range h.Snapshot() {
		if got := d.Sessions + d.Transport; got != perWriter {
			t.Errorf("%s: lifetime sessions+transport = %d, want %d", d.Device, got, perWriter)
		}
	}
}
