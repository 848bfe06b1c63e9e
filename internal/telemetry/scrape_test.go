package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeAdmin serves a minimal admin surface shaped like the attest admin
// endpoint, for driving the federator without importing the attest layer.
func fakeAdmin(t *testing.T, status string, devices, alerts []map[string]any, seriesName string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics/history", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{
			"window_seconds": 5.0,
			"series": []map[string]any{
				{"name": seriesName, "kind": "counter", "points": []map[string]any{{"t": 1, "v": 2.0}}},
			},
		})
	})
	mux.HandleFunc("/devices", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(devices)
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(alerts)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if status == StatusSuspect.String() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"status": status, "devices": len(devices)})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestFederatorValidation(t *testing.T) {
	if _, err := NewFederator([]ScrapeSource{{Name: "", BaseURL: "http://x"}}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewFederator([]ScrapeSource{
		{Name: "a", BaseURL: "http://x"}, {Name: "a", BaseURL: "http://y"},
	}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestFederatorMergesSources(t *testing.T) {
	a := fakeAdmin(t, "ok",
		[]map[string]any{{"device": "edge-1", "status": "ok"}},
		[]map[string]any{{"name": "rtt-p95", "state": "inactive"}},
		"sessions_total")
	b := fakeAdmin(t, "degraded",
		[]map[string]any{{"device": "edge-2", "status": "degraded"}},
		[]map[string]any{{"name": "rtt-p95", "state": "firing"}},
		"sessions_total")

	fed, err := NewFederator([]ScrapeSource{
		{Name: "shard-a", BaseURL: a.URL},
		{Name: "shard-b", BaseURL: b.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok := fed.Poll(context.Background()); ok != 2 {
		t.Fatalf("Poll scraped %d sources clean, want 2", ok)
	}

	mux := fed.Mux()

	// Merged history: both sources' series, each labeled.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics/history", nil))
	var hist struct {
		Federated bool             `json:"federated"`
		Sources   int              `json:"sources"`
		Series    []map[string]any `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hist); err != nil {
		t.Fatalf("merged history does not parse: %v\n%s", err, rec.Body.String())
	}
	if !hist.Federated || hist.Sources != 2 || len(hist.Series) != 2 {
		t.Fatalf("merged history = %+v", hist)
	}
	gotSources := map[string]bool{}
	for _, s := range hist.Series {
		if s["name"] != "sessions_total" {
			t.Errorf("series name = %v", s["name"])
		}
		src, _ := s["source"].(string)
		gotSources[src] = true
	}
	if !gotSources["shard-a"] || !gotSources["shard-b"] {
		t.Errorf("source labels = %v", gotSources)
	}

	// Merged devices and alerts carry source labels too.
	for _, route := range []string{"/devices", "/alerts"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, route, nil))
		var records []map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &records); err != nil {
			t.Fatalf("%s does not parse: %v", route, err)
		}
		if len(records) != 2 {
			t.Fatalf("%s merged %d records, want 2", route, len(records))
		}
		for _, r := range records {
			if r["source"] != "shard-a" && r["source"] != "shard-b" {
				t.Errorf("%s record missing source label: %v", route, r)
			}
		}
	}

	// Merged health: worst across sources (degraded beats ok), 200.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz code = %d", rec.Code)
	}
	var health struct {
		Status  string                    `json:"status"`
		Sources map[string]map[string]any `json:"sources"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || len(health.Sources) != 2 {
		t.Errorf("merged health = %+v", health)
	}
}

func TestFederatorSuspectIs503(t *testing.T) {
	a := fakeAdmin(t, "ok", nil, nil, "s_total")
	b := fakeAdmin(t, "suspect", nil, nil, "s_total")
	fed, err := NewFederator([]ScrapeSource{
		{Name: "a", BaseURL: a.URL}, {Name: "b", BaseURL: b.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	fed.Poll(context.Background())

	rec := httptest.NewRecorder()
	fed.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz code = %d, want 503 when a source is suspect", rec.Code)
	}
	var merged struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &merged); err != nil || merged.Status != "suspect" {
		t.Errorf("merged body = %s (err=%v), want status suspect", rec.Body.String(), err)
	}
}

// TestFederatorUnreachableSource: a source that fails its scrape keeps its
// last good data, is flagged stale, and degrades the merged verdict.
func TestFederatorUnreachableSource(t *testing.T) {
	a := fakeAdmin(t, "ok", []map[string]any{{"device": "edge-1"}}, nil, "s_total")
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	t.Cleanup(down.Close)

	fed, err := NewFederator([]ScrapeSource{
		{Name: "alive", BaseURL: a.URL}, {Name: "dead", BaseURL: down.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok := fed.Poll(context.Background()); ok != 1 {
		t.Fatalf("Poll clean count = %d, want 1", ok)
	}

	h := fed.Health()
	if h.Status != StatusDegraded.String() {
		t.Errorf("merged status with blind spot = %q, want degraded", h.Status)
	}
	if len(h.Stale) != 1 || h.Stale[0] != "dead" {
		t.Errorf("stale sources = %v, want [dead]", h.Stale)
	}

	// /federation reports the failure.
	var fedDoc []struct {
		Source   string `json:"source"`
		Scrapes  uint64 `json:"scrapes"`
		Failures uint64 `json:"failures"`
		Stale    bool   `json:"stale"`
		LastErr  string `json:"last_error"`
	}
	rec := httptest.NewRecorder()
	fed.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/federation", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &fedDoc); err != nil {
		t.Fatalf("federation JSON does not parse: %v\n%s", err, rec.Body.String())
	}
	byName := map[string]int{}
	for i, d := range fedDoc {
		byName[d.Source] = i
	}
	dead := fedDoc[byName["dead"]]
	if dead.Failures != 1 || !dead.Stale || dead.LastErr == "" {
		t.Errorf("dead source record = %+v", dead)
	}
	alive := fedDoc[byName["alive"]]
	if alive.Failures != 0 || alive.Stale || alive.Scrapes != 1 {
		t.Errorf("alive source record = %+v", alive)
	}
}

// TestFederatorStaleness: data older than StaleAfter flags the source even
// when the last scrape succeeded.
func TestFederatorStaleness(t *testing.T) {
	a := fakeAdmin(t, "ok", nil, nil, "s_total")
	fed, err := NewFederator([]ScrapeSource{{Name: "a", BaseURL: a.URL}})
	if err != nil {
		t.Fatal(err)
	}
	clk := &manualClock{t: time.Unix(3000, 0)}
	fed.SetClock(clk.now)
	fed.SetStaleAfter(30 * time.Second)
	fed.Poll(context.Background())

	if h := fed.Health(); h.Status != StatusOK.String() || len(h.Stale) != 0 {
		t.Fatalf("fresh health = %+v", h)
	}
	clk.advance(31 * time.Second)
	h := fed.Health()
	if h.Status != StatusDegraded.String() || len(h.Stale) != 1 {
		t.Errorf("stale health = %+v", h)
	}
}

func TestFederatorMuxMethodNotAllowed(t *testing.T) {
	a := fakeAdmin(t, "ok", nil, nil, "s_total")
	fed, err := NewFederator([]ScrapeSource{{Name: "a", BaseURL: a.URL}})
	if err != nil {
		t.Fatal(err)
	}
	mux := fed.Mux()
	for _, route := range []string{"/metrics/history", "/devices", "/alerts", "/healthz", "/federation"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader("x")))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", route, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("POST %s Allow header = %q", route, allow)
		}
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, route, nil))
		if rec.Code == http.StatusMethodNotAllowed {
			t.Errorf("GET %s rejected", route)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("GET %s Content-Type = %q", route, ct)
		}
	}
}

// TestFederatorEmptyBodies: merged routes answer valid JSON before any
// successful scrape.
func TestFederatorEmptyBodies(t *testing.T) {
	fed, err := NewFederator([]ScrapeSource{{Name: "a", BaseURL: "http://127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	mux := fed.Mux()
	for _, route := range []string{"/metrics/history", "/devices", "/alerts", "/healthz", "/federation"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, route, nil))
		body, _ := io.ReadAll(rec.Body)
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Errorf("%s before scrape does not parse: %v\n%s", route, err, body)
		}
	}
}
