package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pufatt/internal/attest"
	"pufatt/internal/attest/cluster"
	"pufatt/internal/core"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
	"pufatt/internal/telemetry"
)

func TestSparkline(t *testing.T) {
	cases := []struct {
		name   string
		values []float64
		width  int
		want   string
	}{
		{"empty", nil, 10, ""},
		{"flat", []float64{5, 5, 5}, 10, "▁▁▁"},
		{"ramp", []float64{0, 1, 2, 3, 4, 5, 6, 7}, 10, "▁▂▃▄▅▆▇█"},
		{"clipped to width", []float64{9, 9, 0, 7}, 2, "▁█"},
		{"single", []float64{3}, 5, "▁"},
	}
	for _, tc := range cases {
		if got := sparkline(tc.values, tc.width); got != tc.want {
			t.Errorf("%s: sparkline = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestWorstDevicesOrdering(t *testing.T) {
	devices := []deviceHealth{
		{Device: "calm", Status: "ok", FailureRate: 0.01},
		{Device: "proxy", Status: "suspect", RTTP95: 0.12},
		{Device: "flaky", Status: "degraded", FailureRate: 0.4},
		{Device: "tired", Status: "awaiting-reenroll"},
		{Device: "slow-ok", Status: "ok", FailureRate: 0.01, RTTP95: 0.2},
	}
	got := worstDevices(devices, 3)
	wantOrder := []string{"proxy", "tired", "flaky"}
	if len(got) != len(wantOrder) {
		t.Fatalf("worstDevices returned %d devices, want %d", len(got), len(wantOrder))
	}
	for i, want := range wantOrder {
		if got[i].Device != want {
			t.Errorf("rank %d = %q, want %q", i, got[i].Device, want)
		}
	}
	// Ties on status fall through to failure rate, then RTT p95.
	all := worstDevices(devices, 0)
	if all[3].Device != "slow-ok" || all[4].Device != "calm" {
		t.Errorf("ok-tier tiebreak = %q, %q; want slow-ok then calm", all[3].Device, all[4].Device)
	}
}

func TestStatusSeverity(t *testing.T) {
	if telemetry.ParseStatus("suspect") <= telemetry.ParseStatus("degraded") {
		t.Error("suspect must outrank degraded")
	}
	if telemetry.ParseStatus("never-heard-of-it") != telemetry.ParseStatus("degraded") {
		t.Error("unknown statuses should rank with degraded")
	}
	if telemetry.ParseStatus("ok") != 0 {
		t.Error("ok must be the lowest severity")
	}
}

func renderedFixture() snapshot {
	return snapshot{
		Base:      "http://test:7790",
		FetchedAt: time.Unix(1700000000, 0).UTC(),
		Health:    healthSummary{Status: "suspect", Devices: 3, OK: 1, Degraded: 1, Suspect: 1},
		Devices: []deviceHealth{
			{Device: "node-0", Status: "ok", RTTP95: 0.001},
			{Device: "node-1", Status: "degraded", FailureRate: 0.3, Reasons: []string{"failure_rate>slo"}},
			{Device: "node-2", Status: "suspect", RTTP95: 0.09, Reasons: []string{"rtt_p95>slo"}, Quarantined: true},
		},
		Alerts: []alertStatus{
			{Name: "session-failure-burn", State: "inactive", Metric: "attest_sessions_total"},
			{Name: "rtt-p95-burn", State: "firing", Metric: "attest_rtt_seconds", FastBurn: 6.1, SlowBurn: 3.2, Fired: 1},
		},
		History: historyResponse{
			WindowSeconds: 5,
			Series: []historySeries{
				{Name: "attest_sessions_total", Kind: "counter", Points: []historyPoint{{T: 1, V: 10}, {T: 2, V: 12}}},
				{Name: "attest_rtt_seconds", Kind: "histogram", Points: []historyPoint{
					{T: 1, Count: 10, P95: 0.002},
					{T: 2, Count: 10, P95: 0.09, Exemplar: "00000000deadbeef"},
				}},
			},
		},
	}
}

func TestRenderFrame(t *testing.T) {
	var b strings.Builder
	render(&b, renderedFixture(), renderOptions{Color: false, TopK: 2, MaxSeries: 8, SparkWidth: 16})
	out := b.String()

	for _, want := range []string{
		"fleet: suspect  devices 3  ok 1  degraded 1  reenroll 0  suspect 1",
		"ALERTS (1 firing / 2 rules)",
		"FIRING    rtt-p95-burn",
		"SERIES (5s windows)",
		"attest_rtt_seconds",
		"exemplar 00000000deadbeef",
		"DEVICES (worst 2 of 3)",
		"node-2",
		"quarantined; rtt_p95>slo",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q\nframe:\n%s", want, out)
		}
	}
	// TopK 2 means the healthy node is cut; firing alerts sort first.
	if strings.Contains(out, "node-0") {
		t.Errorf("frame should hide the healthiest device at top-2:\n%s", out)
	}
	if strings.Index(out, "rtt-p95-burn") > strings.Index(out, "session-failure-burn") {
		t.Errorf("firing alert should render before inactive ones:\n%s", out)
	}
	// RTT series outranks the counter in the sparkline ordering.
	if strings.Index(out, "attest_rtt_seconds") > strings.Index(out, "attest_sessions_total") {
		t.Errorf("rtt series should render before session counter:\n%s", out)
	}
	if strings.Contains(out, "\x1b[") {
		t.Errorf("color disabled but frame contains ANSI escapes:\n%s", out)
	}
}

func TestRenderColorAndEmpty(t *testing.T) {
	var b strings.Builder
	render(&b, renderedFixture(), renderOptions{Color: true})
	if !strings.Contains(b.String(), "\x1b[31m") {
		t.Error("color frame missing red escape for suspect status")
	}

	b.Reset()
	render(&b, snapshot{Base: "http://down:1", Errs: []string{"connect refused"}}, renderOptions{})
	out := b.String()
	if !strings.Contains(out, "fetch error: connect refused") {
		t.Errorf("empty frame should surface fetch errors:\n%s", out)
	}
	if strings.Contains(out, "DEVICES") || strings.Contains(out, "ALERTS") {
		t.Errorf("empty snapshot should omit empty sections:\n%s", out)
	}
}

func TestFetchSnapshot(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// 503 is the suspect-fleet signal, not a fetch failure.
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"status": "suspect", "devices": 2, "ok": 1, "degraded": 0, "awaiting_reenroll": 0, "suspect": 1}`))
	})
	mux.HandleFunc("/devices", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`[{"device": "n0", "status": "suspect", "rtt_p95": 0.2, "seeds_remaining": 7}]`))
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`[{"name": "rtt-p95-burn", "state": "firing", "fast_burn": 4.5}]`))
	})
	mux.HandleFunc("/metrics/history", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"window_seconds": 5, "series": [{"name": "attest_rtt_seconds", "kind": "histogram", "points": [{"t": 9, "count": 3, "p95": 0.01, "exemplar": "00000000000000aa"}]}]}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	snap := fetchSnapshot(srv.Client(), srv.URL, time.Unix(1700000000, 0))
	if len(snap.Errs) != 0 {
		t.Fatalf("unexpected fetch errors: %v", snap.Errs)
	}
	if snap.Health.Status != "suspect" || snap.Health.Devices != 2 {
		t.Errorf("health = %+v", snap.Health)
	}
	if len(snap.Devices) != 1 || snap.Devices[0].SeedsRemaining != 7 {
		t.Errorf("devices = %+v", snap.Devices)
	}
	if len(snap.Alerts) != 1 || snap.Alerts[0].State != "firing" {
		t.Errorf("alerts = %+v", snap.Alerts)
	}
	if len(snap.History.Series) != 1 || snap.History.Series[0].Points[0].Exemplar != "00000000000000aa" {
		t.Errorf("history = %+v", snap.History)
	}
}

func TestFederatedHealthTotals(t *testing.T) {
	var h healthSummary
	body := `{"status": "suspect", "federated": true, "stale_sources": ["west"],
	  "sources": {
	    "east": {"status": "ok", "devices": 3, "ok": 3},
	    "west": {"status": "suspect", "devices": 3, "ok": 2, "suspect": 1}
	  }}`
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	tot := h.totals()
	if tot.Devices != 6 || tot.OK != 5 || tot.Suspect != 1 {
		t.Errorf("totals = %+v", tot)
	}
	var b strings.Builder
	render(&b, snapshot{Base: "http://fed", Health: h}, renderOptions{})
	out := b.String()
	if !strings.Contains(out, "devices 6") || !strings.Contains(out, "[federated: 2 sources, 1 stale]") {
		t.Errorf("federated header wrong:\n%s", out)
	}
}

func TestSeedsColumnUnbounded(t *testing.T) {
	var b strings.Builder
	render(&b, snapshot{Devices: []deviceHealth{{Device: "n0", Status: "ok", SeedsRemaining: -1}}}, renderOptions{})
	if !strings.Contains(b.String(), "      -  ") {
		t.Errorf("unbounded seed budget should render as a dash:\n%s", b.String())
	}
}

// The probe panel's contract: a shard with a firing canary alert is flagged
// in its NOTES, and a shard with zero probe sessions renders "no data" — the
// absence of probe evidence must never display as healthy.
func TestRenderProbesPanel(t *testing.T) {
	snap := renderedFixture()
	snap.HasProbes = true
	snap.Probes = []probeStatus{
		{Shard: "shard-0", Alive: true, Sessions: 4, Accepted: 4,
			LastVerdict: "accepted", LastRTTSeconds: 0.0021, SeedsRemaining: 12},
		{Shard: "shard-1", Alive: true, Sessions: 4, Transport: 4,
			LastVerdict: "transport", LastReason: "link: dropped", SeedsRemaining: 12},
		{Shard: "shard-2", Alive: true, Sessions: 0, SeedsRemaining: 16},
	}
	snap.Alerts = append(snap.Alerts, alertStatus{
		Name: "cluster-probe-failure/shard-1", State: "firing",
		Metric: "cluster_probe_failures_total", FastBurn: 8.2, Fired: 1,
	})

	var b strings.Builder
	render(&b, snap, renderOptions{Color: false})
	out := b.String()
	for _, want := range []string{
		"SHARD PROBES (3 shards, 1 probe alerts firing)",
		"accepted",
		"ALERT cluster-probe-failure/shard-1",
		"link: dropped",
		"no data",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("probe panel missing %q\nframe:\n%s", want, out)
		}
	}
	// The unprobed shard must not borrow a healthy verdict or a stale RTT.
	shard2 := out[strings.Index(out, "shard-2"):]
	if nl := strings.IndexByte(shard2, '\n'); nl >= 0 {
		shard2 = shard2[:nl]
	}
	if strings.Contains(shard2, "accepted") || !strings.Contains(shard2, "no data") {
		t.Errorf("zero-session shard row must read as no data, not healthy: %q", shard2)
	}

	// A verifier without a probe tier renders no probe section at all.
	b.Reset()
	plain := renderedFixture()
	render(&b, plain, renderOptions{})
	if strings.Contains(b.String(), "SHARD PROBES") {
		t.Errorf("snapshot without probe data grew a probe section:\n%s", b.String())
	}
}

// /probes is cluster-only: a 404 from a plain verifier is version skew to
// tolerate, not a fetch error; a live endpoint flips HasProbes on.
func TestFetchSnapshotProbesTolerant(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"status": "ok", "devices": 1, "ok": 1}`))
	})
	mux.HandleFunc("/devices", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`[]`))
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`[]`))
	})
	mux.HandleFunc("/metrics/history", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"window_seconds": 5}`))
	})
	srv := httptest.NewServer(mux) // no /probes: stdlib mux 404s with HTML
	defer srv.Close()

	snap := fetchSnapshot(srv.Client(), srv.URL, time.Unix(1700000000, 0))
	if len(snap.Errs) != 0 {
		t.Fatalf("404 on /probes surfaced as fetch errors: %v", snap.Errs)
	}
	if snap.HasProbes {
		t.Fatal("HasProbes set with no probe endpoint")
	}

	mux.HandleFunc("/probes", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`[{"shard": "shard-0", "alive": true, "sessions": 2, "accepted": 2, "last_verdict": "accepted", "last_rtt_seconds": 0.003, "seeds_remaining": 6}]`))
	})
	snap = fetchSnapshot(srv.Client(), srv.URL, time.Unix(1700000001, 0))
	if !snap.HasProbes || len(snap.Probes) != 1 || snap.Probes[0].Shard != "shard-0" {
		t.Fatalf("probe fetch = hasProbes=%v probes=%+v", snap.HasProbes, snap.Probes)
	}
	if snap.Probes[0].SeedsRemaining != 6 || snap.Probes[0].LastVerdict != "accepted" {
		t.Fatalf("probe fields lost in decode: %+v", snap.Probes[0])
	}
}

func TestFetchSnapshotUnreachable(t *testing.T) {
	client := &http.Client{Timeout: 200 * time.Millisecond}
	snap := fetchSnapshot(client, "http://127.0.0.1:1", time.Unix(0, 0))
	if len(snap.Errs) != 4 {
		t.Fatalf("want 4 per-endpoint errors, got %d: %v", len(snap.Errs), snap.Errs)
	}
}

// TestFetchSnapshotLiveProducers reads the real producers rather than
// hand-typed bodies: a live attest.AdminMux after a few sessions and one
// fleet observation, a cluster.AdminMux with a canary prober, and a
// Federator over both. Every surface must decode, and the fields the
// panels render must arrive filled in.
func TestFetchSnapshotLiveProducers(t *testing.T) {
	dev := core.MustNewDevice(core.MustNewDesign(core.DefaultConfig()), rng.New(5), 0)
	image, err := swatt.BuildImage(swatt.Params{MemWords: 1024, Chunks: 4, BlocksPerChunk: 2, PRG: swatt.PRGMix32}, make([]uint32, 200))
	if err != nil {
		t.Fatal(err)
	}
	prover, v, err := attest.NewPair(dev, image)
	if err != nil {
		t.Fatal(err)
	}
	v.Nonces = rng.New(6).Uint32
	v.Device = "node-0"
	tel := attest.NewTelemetry(telemetry.NewRegistry(), telemetry.NewTracer(32))
	for i := 0; i < 4; i++ {
		if _, _, err := tel.RunSessionRetry(context.Background(), v, prover, attest.DefaultLink(), attest.RetryPolicy{}); err != nil {
			t.Fatal(err)
		}
	}
	tel.ObserveFleet()
	verifier := httptest.NewServer(attest.AdminMux(tel))
	defer verifier.Close()

	c, err := cluster.New(cluster.Config{Shards: []string{"shard-0"}})
	if err != nil {
		t.Fatal(err)
	}
	prober, err := cluster.NewProber(c, cluster.ProberConfig{})
	if err != nil {
		t.Fatal(err)
	}
	prober.ProbeAll(context.Background())
	clustered := httptest.NewServer(cluster.AdminMux(c, tel))
	defer clustered.Close()

	fed, err := telemetry.NewFederator([]telemetry.ScrapeSource{
		{Name: "verifier", BaseURL: verifier.URL}, {Name: "cluster", BaseURL: clustered.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := fed.Poll(context.Background()); n != 2 {
		t.Fatalf("federator: %d clean scrapes, want 2: %+v", n, fed.Scrapes())
	}
	federated := httptest.NewServer(fed.Mux())
	defer federated.Close()

	for _, tc := range []struct {
		name   string
		base   string
		probes int
	}{
		{"attest", verifier.URL, 0},
		{"cluster", clustered.URL, 1},
		{"federator", federated.URL, 1},
	} {
		snap := fetchSnapshot(http.DefaultClient, tc.base, time.Now())
		if len(snap.Errs) != 0 {
			t.Errorf("%s: fetch errors %v", tc.name, snap.Errs)
			continue
		}
		if snap.Health.Status != "ok" || len(snap.Devices) == 0 {
			t.Errorf("%s: health %+v, %d devices", tc.name, snap.Health, len(snap.Devices))
		}
		for _, d := range snap.Devices {
			if d.Device != "node-0" || d.Status != "ok" || d.Sessions != 4 || d.RTTP95 <= 0 {
				t.Errorf("%s: device %+v, want node-0 ok over 4 sessions with an RTT p95", tc.name, d)
			}
		}
		if len(snap.Alerts) == 0 {
			t.Errorf("%s: no alerts", tc.name)
		}
		for _, a := range snap.Alerts {
			if a.Name == "" || a.State == "" {
				t.Errorf("%s: alert without a name or state: %+v", tc.name, a)
			}
		}
		exemplar := ""
		for _, s := range snap.History.Series {
			if s.Name == "attest_rtt_seconds" {
				exemplar = lastExemplar(s)
			}
		}
		if len(exemplar) != 16 {
			t.Errorf("%s: attest_rtt_seconds history exemplar %q, want a trace ID", tc.name, exemplar)
		}
		if len(snap.Probes) != tc.probes || snap.HasProbes != (tc.probes > 0) {
			t.Errorf("%s: probes %+v (has %v), want %d", tc.name, snap.Probes, snap.HasProbes, tc.probes)
		}
	}
}
