package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pufatt/internal/attest"
	"pufatt/internal/telemetry"
)

// Observability-v4 suite: cluster span stitching, the queue-wait→alert→
// profile-capture chain, synthetic canary probing, and the lag-gauge
// regression — all deterministic under a step clock and seeded IDs.

// clkStep is a hand-advanced clock shared by the tracer, history, and
// alert manager so distributed timing in these tests is exact.
type clkStep struct {
	mu sync.Mutex
	t  time.Time
}

func (c *clkStep) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clkStep) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newClusterTelemetry binds a cluster to a private, clock-driven telemetry
// bundle: its own registry, a seeded tracer, and history/alert clocks all
// on clk.
func newClusterTelemetry(t *testing.T, c *Cluster, seed uint64) (*attest.Telemetry, *clkStep) {
	t.Helper()
	tracer := telemetry.NewTracer(256)
	tracer.SetIDSeed(seed)
	tel := attest.NewTelemetry(telemetry.NewRegistry(), tracer)
	clk := &clkStep{t: time.Unix(70000, 0)}
	tracer.SetClock(clk.now)
	tel.History.SetClock(clk.now)
	tel.History.SetWindow(5 * time.Second)
	tel.Alerts.SetClock(clk.now)
	c.SetTelemetry(tel)
	return tel, clk
}

// The regression this PR fixes: cluster_repl_lag_frames was Set per group,
// so a healthy group's zero overwrote a lagging group's value — whichever
// group replicated last owned the gauge and the replication-lag alert went
// blind. The gauge must report the max across groups.
func TestReplLagGaugeMaxAcrossGroups(t *testing.T) {
	m := NewMetrics(telemetry.NewRegistry())

	m.observeLag(1, 5) // group 1 lags five frames
	m.observeLag(2, 0) // group 2 healthy — must NOT mask group 1
	if v := m.ReplLag.Value(); v != 5 {
		t.Fatalf("lag gauge = %v after healthy group reported, want 5 (masking regression)", v)
	}
	m.observeLag(2, 9) // group 2 now worse
	if v := m.ReplLag.Value(); v != 9 {
		t.Fatalf("lag gauge = %v, want max 9", v)
	}
	m.observeLag(2, 0) // group 2 caught up; group 1 still behind
	if v := m.ReplLag.Value(); v != 5 {
		t.Fatalf("lag gauge = %v after group 2 recovered, want 5", v)
	}
	m.observeLag(1, 0)
	if v := m.ReplLag.Value(); v != 0 {
		t.Fatalf("lag gauge = %v with all groups caught up, want 0", v)
	}
}

// One uncontended session through the cluster path stitches every
// distributed phase into a single trace: the cluster.attest root holds
// route, queue.wait, and the replication acknowledge cycle (with one
// repl.follower child per live follower), and the session itself is a root
// span adopted into the same trace.
func TestClusterSpanStitching(t *testing.T) {
	c := threeShards(t, true)
	tel, _ := newClusterTelemetry(t, c, 97)
	bindTestDevice(t, c, 0, 4)

	res, _, err := c.Attest(context.Background(), 0, attest.RetryPolicy{MaxAttempts: 3, JitterSeed: 1})
	if err != nil || !res.Accepted {
		t.Fatalf("attest: err=%v accepted=%v", err, res.Accepted)
	}

	var root *telemetry.Span
	for _, sp := range tel.Tracer.Recent() {
		if sp.Name() == "cluster.attest" {
			root = sp
		}
	}
	if root == nil {
		t.Fatal("no cluster.attest root span recorded")
	}
	if root.Attr("device") != "0" {
		t.Fatalf("root device attr = %q", root.Attr("device"))
	}
	children := map[string]*telemetry.Span{}
	for _, ch := range root.Children() {
		children[ch.Name()] = ch
	}
	spRoute := children["route"]
	if spRoute == nil || spRoute.Attr("shard") == "" {
		t.Fatalf("route span missing or unattributed: %v", children)
	}
	if children["queue.wait"] == nil {
		t.Fatal("queue.wait span missing from the cluster trace")
	}
	spAck := children["repl.ack"]
	if spAck == nil {
		t.Fatal("repl.ack span missing: the claim cycle did not stitch into the session trace")
	}
	followers := 0
	for _, ch := range spAck.Children() {
		if ch.Name() == "repl.follower" && ch.Attr("shard") != "" {
			followers++
		}
	}
	if followers != 2 {
		t.Fatalf("repl.follower spans = %d, want 2 (replicas minus leader)", followers)
	}

	// The session ran as a root span adopted into the cluster trace.
	session := false
	for _, sp := range tel.Tracer.ByTrace(root.TraceID()) {
		if sp.Name() == "attest.session" {
			session = true
		}
	}
	if !session {
		t.Fatalf("trace %s holds no attest.session root", root.TraceID())
	}
}

// Canary probing is a pure function of its seeds: two identically
// configured probers over identically configured clusters report identical
// outcomes, a per-shard fault plan fails exactly its shard, and the
// isolated canary budget burns no cluster seeds.
func TestProberDeterministicOverFaultyLink(t *testing.T) {
	build := func() (*Cluster, *Prober) {
		c := threeShards(t, true)
		tracer := telemetry.NewTracer(64)
		tracer.SetIDSeed(7)
		tel := attest.NewTelemetry(telemetry.NewRegistry(), tracer)
		c.SetTelemetry(tel)
		p, err := NewProber(c, ProberConfig{
			Seeds: 8, Seed: 3, FaultSeed: 5, MaxAttempts: 2,
			Plans: map[string]attest.FaultPlan{
				"shard-1": {Drop: 1}, // every frame dropped: probes must report transport
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, p
	}
	c1, p1 := build()
	_, p2 := build()

	const rounds = 3
	for i := 0; i < rounds; i++ {
		p1.ProbeAll(context.Background())
		p2.ProbeAll(context.Background())
	}
	st1, st2 := p1.Status(), p2.Status()
	if len(st1) != 3 || len(st2) != 3 {
		t.Fatalf("status lengths = %d, %d, want 3", len(st1), len(st2))
	}
	for i := range st1 {
		a, b := st1[i], st2[i]
		if a.Shard != b.Shard || a.Sessions != b.Sessions || a.Accepted != b.Accepted ||
			a.Transport != b.Transport || a.LastVerdict != b.LastVerdict ||
			a.SeedsRemaining != b.SeedsRemaining || a.LastRTTSeconds != b.LastRTTSeconds {
			t.Fatalf("probe outcomes diverged between identical probers:\n%+v\n%+v", a, b)
		}
		switch a.Shard {
		case "shard-1":
			if a.Transport != rounds || a.Accepted != 0 || a.LastVerdict != "transport" {
				t.Fatalf("faulted shard-1 canary: %+v, want %d transport failures", a, rounds)
			}
		default:
			if a.Accepted != rounds || a.LastVerdict != "accepted" || a.LastRTTSeconds <= 0 {
				t.Fatalf("clean canary %s: %+v, want %d accepted", a.Shard, a, rounds)
			}
		}
		if a.SeedsRemaining >= 8 {
			t.Fatalf("canary %s burned no seeds across %d probes: %+v", a.Shard, rounds, a)
		}
	}

	// Isolation: the canaries claimed seeds, but the cluster's replicated
	// claim logs saw nothing — zero frames, zero devices.
	if audit := c1.AuditClaims(); audit.Frames != 0 || audit.Devices != 0 {
		t.Fatalf("canary probes leaked into the cluster claim logs: %+v", audit)
	}
	met := c1.Metrics()
	if v := met.ProbeFailures.With("shard-1").Value(); v != rounds {
		t.Fatalf("shard-1 probe failures = %d, want %d", v, rounds)
	}
	if v := met.ProbeFailures.With("shard-0").Value(); v != 0 {
		t.Fatalf("clean shard-0 probe failures = %d, want 0", v)
	}
	if v := met.ProbeSessions.With("shard-2", "accepted").Value(); v != rounds {
		t.Fatalf("cluster_probe_sessions_total{shard=shard-2,verdict=accepted} = %d, want %d", v, rounds)
	}
}

// The cluster alerting scenario, deterministic end to end: queue-wait
// inflation on one shard drives the queue-wait burn alert, the alert
// triggers a profile capture tagged with its name and an exemplar trace
// whose tree contains the queue.wait span — while that shard's canary
// still reports the protocol itself correct. Conversely, a shard with ZERO
// organic traffic is flagged by its canary alone. Requests refused by the
// full queue drive the overload burn, and a replica revived behind its
// group's high-water mark drives the replication-lag alert.
func TestQueueWaitAlertProfileAndProbeEndToEnd(t *testing.T) {
	c, err := New(Config{
		Shards:       []string{"shard-0", "shard-1", "shard-2"},
		Replicas:     3,
		MaxInFlight:  1, // one slot: a parked session forces real queueing
		MaxQueue:     1, // one waiter: a second arrival is refused
		AutoFailover: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel, clk := newClusterTelemetry(t, c, 101)
	tel.SetProfileDir(t.TempDir())
	tel.Profiler.SetCPUDuration(time.Millisecond)
	tel.Profiler.SetClock(clk.now)

	const id = 0
	bindTestDevice(t, c, id, 16)
	hot := c.Ring().Route(DeviceKey(id)) // the shard organic traffic inflates
	var quiet string                     // a shard with zero organic traffic
	for _, sid := range c.Ring().Shards() {
		if sid != hot {
			quiet = sid
			break
		}
	}

	// A second device loses a follower for one claim; revived, the
	// follower is live and one frame behind, and stays so because the
	// device sees no further claims.
	lagging, err := c.Enroll(fakeEnrollment(1, 1, 10, 20))
	if err != nil {
		t.Fatal(err)
	}
	stale := lagging.Replicas()[1]
	if stale == hot {
		stale = lagging.Replicas()[2]
	}
	if err := c.Kill(stale); err != nil {
		t.Fatal(err)
	}
	if _, err := lagging.NextUnused(); err != nil {
		t.Fatal(err)
	}
	if err := c.Revive(stale); err != nil {
		t.Fatal(err)
	}
	if v := c.Metrics().ReplLag.Value(); v != 1 {
		t.Fatalf("cluster_repl_lag_frames = %v after a stale revive, want 1", v)
	}

	// Canaries probe every shard; the quiet shard's canary link is faulted,
	// so its failure signal comes from probes alone.
	prober, err := NewProber(c, ProberConfig{
		Seeds: 32, Seed: 3, FaultSeed: 5,
		Plans: map[string]attest.FaultPlan{quiet: {Drop: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}

	const tick = 5 * time.Second
	rules := DefaultClusterAlertRules(0.5, 0.05) // queue-wait p99 bound: 50ms
	rules = append(rules, prober.AlertRules(0.25)...)
	for i := range rules {
		rules[i].FastWindow = 2 * tick
		rules[i].SlowWindow = 4 * tick
	}
	tel.Alerts.SetRules(rules)

	waitForQueue := func(adm *Admission) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for adm.QueueDepth() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("session never queued")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	// Each round: park a session in the hot shard's only slot, queue a real
	// one behind it, have two more arrivals refused by the full queue,
	// advance the clock one second of queue wait, release, then probe
	// every shard and collect a history window.
	policy := attest.RetryPolicy{MaxAttempts: 3, JitterSeed: 1}
	for round := 0; round < 6; round++ {
		adm := c.Shard(hot).Admission()
		release, aerr := adm.Acquire(context.Background())
		if aerr != nil {
			t.Fatal(aerr)
		}
		done := make(chan error, 1)
		go func() {
			res, _, serr := c.Attest(context.Background(), id, policy)
			if serr == nil && !res.Accepted {
				serr = fmt.Errorf("round rejected: %s", res.Reason)
			}
			done <- serr
		}()
		waitForQueue(adm)
		for i := 0; i < 2; i++ {
			if _, _, oerr := c.Attest(context.Background(), id, policy); !IsOverload(oerr) {
				t.Fatalf("arrival behind a full queue: %v, want overload", oerr)
			}
		}
		clk.advance(time.Second) // the queue wait, measured on the tracer clock
		release()
		if serr := <-done; serr != nil {
			t.Fatalf("queued session: %v", serr)
		}
		prober.ProbeAll(context.Background())
		clk.advance(tick - time.Second)
		tel.ObserveFleet()
	}

	// The queue-wait burn rule fired on the hot shard's inflated waits…
	assertFiring := func(name string) {
		t.Helper()
		for _, a := range tel.Alerts.Snapshot() {
			if a.Rule.Name == name {
				if a.State != telemetry.AlertFiring {
					t.Fatalf("%s = %s, want firing", name, a.State)
				}
				return
			}
		}
		t.Fatalf("alert rule %q not registered", name)
	}
	assertFiring("cluster-queue-wait-burn")
	assertFiring("cluster-overload-burn")
	assertFiring("cluster-replication-lag")

	// …and triggered exactly one profile capture carrying the alert's name
	// and an exemplar trace ID.
	if v := tel.ProfileCaptures.With("cluster-queue-wait-burn").Value(); v != 1 {
		t.Fatalf("queue-wait alert captures = %d, want exactly 1", v)
	}
	var capture telemetry.ProfileCapture
	for _, e := range tel.Profiler.Snapshot() {
		if e.Trigger == "cluster-queue-wait-burn" {
			capture = e
		}
	}
	if capture.Alert != "cluster-queue-wait-burn" || capture.Trace == "" {
		t.Fatalf("capture metadata: %+v, want alert name and a trace ID", capture)
	}

	// The capture's trace resolves to a span tree containing the queue.wait
	// span that measured the inflation.
	traceID, err := strconv.ParseUint(capture.Trace, 16, 64)
	if err != nil {
		t.Fatalf("capture trace %q: %v", capture.Trace, err)
	}
	queueWait := false
	for _, root := range tel.Tracer.ByTrace(telemetry.TraceID(traceID)) {
		for _, ch := range root.Children() {
			if ch.Name() == "queue.wait" && ch.Attr("queued") == "true" {
				queueWait = true
			}
		}
	}
	if !queueWait {
		t.Fatalf("capture trace %s holds no queued queue.wait span", capture.Trace)
	}

	// The degraded shard's canary still reports the protocol correct: queue
	// pressure is congestion, not compromise.
	for _, st := range prober.Status() {
		switch st.Shard {
		case hot:
			if st.LastVerdict != "accepted" || st.Accepted == 0 {
				t.Fatalf("hot-shard canary: %+v, want protocol-correct accepted probes", st)
			}
		case quiet:
			if st.Transport == 0 || st.Accepted != 0 {
				t.Fatalf("faulted quiet-shard canary: %+v, want transport failures only", st)
			}
		}
	}

	// The converse: the quiet shard carried zero organic sessions, yet its
	// probe-failure rule fired — the canary is its only witness.
	if v := c.Metrics().RouteTotal.With(quiet).Value(); v != 0 {
		t.Fatalf("quiet shard saw %d organic routes; the converse needs zero", v)
	}
	assertFiring("cluster-probe-failure/" + quiet)
}

// Per-route contract for the cluster admin surface, /probes included:
// method discipline, Content-Type, body well-formedness, and 400 on a bad
// shard filter.
func TestClusterAdminRoutesAndProbesEndpoint(t *testing.T) {
	c := threeShards(t, true)
	tracer := telemetry.NewTracer(64)
	tracer.SetIDSeed(13)
	tel := attest.NewTelemetry(telemetry.NewRegistry(), tracer)
	c.SetTelemetry(tel)
	srv := httptest.NewServer(AdminMux(c, tel))
	defer srv.Close()
	client := srv.Client()

	for _, path := range []string{"/ring", "/cluster", "/probes"} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("GET %s: Content-Type %q", path, ct)
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Errorf("GET %s: body is not JSON: %v\n%s", path, err, body)
		}
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req, _ := http.NewRequest(method, srv.URL+path, strings.NewReader("x"))
			resp, err := client.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", method, path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s: Allow %q, want \"GET, HEAD\"", method, path, allow)
			}
		}
	}

	// No prober attached: an empty JSON array, never null.
	resp, err := client.Get(srv.URL + "/probes")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(body)) != "[]" {
		t.Fatalf("/probes with no prober = %q, want []", body)
	}

	// An unknown shard filter is a client error, not an empty success.
	if _, err := NewProber(c, ProberConfig{Seeds: 4}); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Get(srv.URL + "/probes?shard=no-such-shard")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/probes?shard=no-such-shard: status %d, want 400", resp.StatusCode)
	}

	// A valid filter serves exactly that shard's canary row.
	resp, err = client.Get(srv.URL + "/probes?shard=shard-1")
	if err != nil {
		t.Fatal(err)
	}
	var statuses []ProbeStatus
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(statuses) != 1 || statuses[0].Shard != "shard-1" {
		t.Fatalf("filtered /probes = %+v, want shard-1 only", statuses)
	}
	if statuses[0].Sessions != 0 {
		t.Fatalf("unprobed canary reports %d sessions, want 0 (no data)", statuses[0].Sessions)
	}
}

// A probe against a dead shard is a verdict, not silence.
func TestProbeDeadShardReportsError(t *testing.T) {
	c := threeShards(t, true)
	tracer := telemetry.NewTracer(64)
	tracer.SetIDSeed(11)
	c.SetTelemetry(attest.NewTelemetry(telemetry.NewRegistry(), tracer))
	p, err := NewProber(c, ProberConfig{Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill("shard-2"); err != nil {
		t.Fatal(err)
	}
	st, err := p.ProbeOnce(context.Background(), "shard-2")
	if err != nil {
		t.Fatal(err)
	}
	if st.Alive || st.LastVerdict != "error" || st.Errors != 1 {
		t.Fatalf("dead-shard probe: %+v, want alive=false verdict=error", st)
	}
	if st.SeedsRemaining != 4 {
		t.Fatalf("dead-shard probe burned a seed: %d remaining", st.SeedsRemaining)
	}
	if _, err := p.ProbeOnce(context.Background(), "no-such-shard"); err == nil {
		t.Fatal("unknown shard probed without error")
	}
}
