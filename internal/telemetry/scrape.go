package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Multi-verifier scrape & federation: one process watching many verifier
// admin endpoints. ROADMAP item 2's sharded verifier tier needs the health
// registry to become a per-shard control plane — which means aggregating
// observability ACROSS processes, not just within one. The Federator polls
// N admin endpoints (the attest.Server admin HTTP), keeps each source's
// latest /metrics/history, /devices, /alerts, and /healthz bodies, tags
// every merged record with a "source" label, and re-serves the union on
// the same routes — so pufatt-top (or a Prometheus scrape) pointed at the
// federator sees the whole fleet as one surface.
//
// Merging is deliberately schema-light: device, alert, and series records
// are parsed as generic JSON objects and re-emitted with the added source
// field, so a federator built today keeps working when a newer verifier
// adds fields. Only /healthz is interpreted (to derive the fleet-wide
// worst status). A source that fails its scrape keeps its last good data,
// flagged stale, and degrades the merged health — an invisible verifier is
// an operational problem even when every visible one is clean.

// ScrapeSource names one admin endpoint to federate.
type ScrapeSource struct {
	// Name is the source label merged records carry ("shard-0").
	Name string
	// BaseURL is the admin endpoint root ("http://host:port").
	BaseURL string
}

// sourceData is the most recent scrape result for one source.
type sourceData struct {
	lastAttempt time.Time
	lastSuccess time.Time
	scrapes     uint64
	failures    uint64
	lastErr     string

	history []map[string]any // /metrics/history "series" entries
	devices []map[string]any // /devices entries
	alerts  []map[string]any // /alerts entries
	probes  []map[string]any // /probes entries (empty for pre-probe verifiers)
	healthz map[string]any   // /healthz object
}

// Federator scrapes many admin endpoints and re-serves the merged view.
// Safe for concurrent use.
type Federator struct {
	mu      sync.Mutex
	sources []ScrapeSource
	data    map[string]*sourceData
	client  *http.Client
	clock   func() time.Time
	// staleAfter marks a source stale when its last success is older than
	// this (0 disables staleness marking).
	staleAfter time.Duration
}

// DefaultScrapeTimeout bounds one source's whole scrape pass.
const DefaultScrapeTimeout = 5 * time.Second

// NewFederator builds a federator over the sources. Source names must be
// unique and non-empty.
func NewFederator(sources []ScrapeSource) (*Federator, error) {
	seen := make(map[string]bool, len(sources))
	for _, s := range sources {
		if s.Name == "" || s.BaseURL == "" {
			return nil, fmt.Errorf("telemetry: federation source needs name and URL: %+v", s)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("telemetry: duplicate federation source %q", s.Name)
		}
		seen[s.Name] = true
	}
	f := &Federator{
		sources: append([]ScrapeSource(nil), sources...),
		data:    make(map[string]*sourceData, len(sources)),
		client:  &http.Client{Timeout: DefaultScrapeTimeout},
		clock:   time.Now,
	}
	for _, s := range f.sources {
		f.data[s.Name] = &sourceData{}
	}
	return f, nil
}

// SetClock injects the federator's clock (nil restores time.Now).
func (f *Federator) SetClock(now func() time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	f.clock = now
}

// SetStaleAfter marks sources stale when their last successful scrape is
// older than d (0 disables).
func (f *Federator) SetStaleAfter(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.staleAfter = d
}

// Sources returns the configured sources.
func (f *Federator) Sources() []ScrapeSource {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]ScrapeSource(nil), f.sources...)
}

// fetchJSON GETs url and decodes the body into v.
func (f *Federator) fetchJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	// /healthz answers 503 when a device is suspect — the body is still
	// the summary we want, so any status with a decodable body passes.
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return nil
}

// scrapeOne fetches one source's admin surfaces. The four fetches share a
// context; a partial failure fails the pass (stale data is flagged, not
// silently mixed fresh-and-old).
func (f *Federator) scrapeOne(ctx context.Context, client *http.Client, src ScrapeSource) (*sourceData, error) {
	base := strings.TrimSuffix(src.BaseURL, "/")
	d := &sourceData{}
	var history struct {
		Series []map[string]any `json:"series"`
	}
	if err := f.fetchJSON(ctx, client, base+"/metrics/history", &history); err != nil {
		return nil, err
	}
	d.history = history.Series
	if err := f.fetchJSON(ctx, client, base+"/devices", &d.devices); err != nil {
		return nil, err
	}
	if err := f.fetchJSON(ctx, client, base+"/alerts", &d.alerts); err != nil {
		return nil, err
	}
	if err := f.fetchJSON(ctx, client, base+"/healthz", &d.healthz); err != nil {
		return nil, err
	}
	// /probes is optional: verifiers predating the canary prober 404 it
	// (with an HTML error body), and a missing canary surface must not
	// fail the whole pass — unlike the four core surfaces, absence here is
	// a version skew, not a blind spot. Decode failures yield no records.
	if err := f.fetchJSON(ctx, client, base+"/probes", &d.probes); err != nil {
		d.probes = nil
	}
	return d, nil
}

// Poll scrapes every source once, concurrently. Failed sources keep their
// previous data (flagged by lastErr/lastSuccess); Poll returns the number
// of sources that scraped clean.
func (f *Federator) Poll(ctx context.Context) int {
	f.mu.Lock()
	sources := append([]ScrapeSource(nil), f.sources...)
	client := f.client
	f.mu.Unlock()

	type result struct {
		name string
		data *sourceData
		err  error
	}
	results := make(chan result, len(sources))
	for _, src := range sources {
		go func(src ScrapeSource) {
			d, err := f.scrapeOne(ctx, client, src)
			results <- result{src.Name, d, err}
		}(src)
	}
	ok := 0
	for range sources {
		r := <-results
		f.mu.Lock()
		now := f.clock()
		cur := f.data[r.name]
		cur.lastAttempt = now
		cur.scrapes++
		if r.err != nil {
			cur.failures++
			cur.lastErr = r.err.Error()
		} else {
			r.data.lastAttempt = now
			r.data.lastSuccess = now
			r.data.scrapes = cur.scrapes
			r.data.failures = cur.failures
			f.data[r.name] = r.data
			ok++
		}
		f.mu.Unlock()
	}
	return ok
}

// Start polls every source at the given interval until the returned stop
// function is called.
func (f *Federator) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = DefaultTimeSeriesWindow
	}
	return Every(interval, func() {
		ctx, cancel := context.WithTimeout(context.Background(), interval)
		f.Poll(ctx)
		cancel()
	})
}

// stale reports whether a source's data is stale under the staleAfter
// policy. Called with f.mu held.
func (f *Federator) staleLocked(d *sourceData) bool {
	if d.lastSuccess.IsZero() {
		return true
	}
	return f.staleAfter > 0 && f.clock().Sub(d.lastSuccess) > f.staleAfter
}

// mergeRecords returns every source's records of one surface with the
// source label injected, source order preserved; empty, not nil, when no
// source has any, so the body is a JSON array either way.
func (f *Federator) mergeRecords(pick func(*sourceData) []map[string]any) []map[string]any {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := []map[string]any{}
	for _, src := range f.sources {
		d := f.data[src.Name]
		for _, rec := range pick(d) {
			m := make(map[string]any, len(rec)+1)
			for k, v := range rec {
				m[k] = v
			}
			m["source"] = src.Name
			out = append(out, m)
		}
	}
	return out
}

// FederatedHealth is the merged /healthz verdict.
type FederatedHealth struct {
	// Status is the worst status across reachable sources, degraded at
	// minimum when any source is stale or never scraped.
	Status  string
	Sources map[string]map[string]any
	Stale   []string
}

// Health derives the merged fleet verdict.
func (f *Federator) Health() FederatedHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := FederatedHealth{Sources: make(map[string]map[string]any, len(f.sources))}
	worst := StatusOK
	for _, src := range f.sources {
		d := f.data[src.Name]
		if f.staleLocked(d) {
			out.Stale = append(out.Stale, src.Name)
			worst = max(worst, StatusDegraded) // a blind spot is at least degraded
		}
		if d.healthz != nil {
			out.Sources[src.Name] = d.healthz
			if s, ok := d.healthz["status"].(string); ok {
				worst = max(worst, ParseStatus(s))
			}
		}
	}
	out.Status = worst.String()
	return out
}

// Mux serves the merged observability surface:
//
//	/metrics/history  the union of every source's series, source-labeled
//	/devices          the union of every source's device health records
//	/alerts           the union of every source's alert statuses
//	/probes           the union of every source's canary probe statuses
//	/healthz          the merged fleet verdict (503 iff any source reports
//	                  suspect); per-source summaries inline
//	/federation       scrape health: per-source attempt/failure tallies,
//	                  last error, staleness
func (f *Federator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	merged := func(pick func(*sourceData) []map[string]any) http.HandlerFunc {
		return GetOnly(ContentJSON, func(w http.ResponseWriter, _ *http.Request) {
			_ = WriteJSON(w, f.mergeRecords(pick))
		})
	}
	mux.HandleFunc("/metrics/history", GetOnly(ContentJSON, func(w http.ResponseWriter, _ *http.Request) {
		series := f.mergeRecords(func(d *sourceData) []map[string]any { return d.history })
		_ = WriteJSON(w, map[string]any{
			"federated": true, "sources": len(f.Sources()), "series": series,
		})
	}))
	mux.HandleFunc("/devices", merged(func(d *sourceData) []map[string]any { return d.devices }))
	mux.HandleFunc("/alerts", merged(func(d *sourceData) []map[string]any { return d.alerts }))
	mux.HandleFunc("/probes", merged(func(d *sourceData) []map[string]any { return d.probes }))
	mux.HandleFunc("/healthz", GetOnly(ContentJSON, func(w http.ResponseWriter, _ *http.Request) {
		h := f.Health()
		if h.Status == StatusSuspect.String() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = WriteJSON(w, map[string]any{
			"status": h.Status, "federated": true,
			"stale_sources": append([]string{}, h.Stale...),
			"sources":       h.Sources,
		})
	}))
	mux.HandleFunc("/federation", GetOnly(ContentJSON, func(w http.ResponseWriter, _ *http.Request) {
		_ = WriteJSON(w, f.Scrapes())
	}))
	return mux
}

// ScrapeStatus is one source's scrape health — a /federation record.
type ScrapeStatus struct {
	Source      string `json:"source"`
	Scrapes     uint64 `json:"scrapes"`
	Failures    uint64 `json:"failures"`
	Stale       bool   `json:"stale"`
	LastSuccess *int64 `json:"last_success_unix_ns,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

// Scrapes returns every source's scrape health, sorted by source name.
func (f *Federator) Scrapes() []ScrapeStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ScrapeStatus, 0, len(f.sources))
	for _, src := range f.sources {
		d := f.data[src.Name]
		out = append(out, ScrapeStatus{
			Source: src.Name, Scrapes: d.scrapes, Failures: d.failures,
			Stale: f.staleLocked(d), LastSuccess: unixNs(d.lastSuccess), LastError: d.lastErr,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}
