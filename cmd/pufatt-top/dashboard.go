package main

// Snapshot fetching and rendering for the live fleet dashboard. Everything
// here is plain stdlib except telemetry.ParseStatus, the status order the
// federator ranks by too: the admin surface speaks JSON, the terminal
// speaks ANSI, and the only state is the snapshot fetched each refresh.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"pufatt/internal/telemetry"
)

// healthSummary mirrors the /healthz body. A federated endpoint nests one
// verifier-shaped summary per source under "sources"; aggregate counts are
// then the sum over sources.
type healthSummary struct {
	Status           string                   `json:"status"`
	Devices          int                      `json:"devices"`
	OK               int                      `json:"ok"`
	Degraded         int                      `json:"degraded"`
	AwaitingReenroll int                      `json:"awaiting_reenroll"`
	Suspect          int                      `json:"suspect"`
	Federated        bool                     `json:"federated"`
	Sources          map[string]healthSummary `json:"sources"`
	StaleSources     []string                 `json:"stale_sources"`
}

// totals folds per-source summaries into fleet-wide counts; a plain
// verifier summary returns itself.
func (h healthSummary) totals() healthSummary {
	if len(h.Sources) == 0 {
		return h
	}
	out := h
	for _, s := range h.Sources {
		out.Devices += s.Devices
		out.OK += s.OK
		out.Degraded += s.Degraded
		out.AwaitingReenroll += s.AwaitingReenroll
		out.Suspect += s.Suspect
	}
	return out
}

// deviceHealth is the subset of a /devices record the dashboard shows.
// Source is set only by federated endpoints.
type deviceHealth struct {
	Source         string   `json:"source"`
	Device         string   `json:"device"`
	Status         string   `json:"status"`
	Reasons        []string `json:"reasons"`
	Sessions       uint64   `json:"sessions"`
	Rejected       uint64   `json:"rejected"`
	FailureRate    float64  `json:"failure_rate"`
	RTTP95         float64  `json:"rtt_p95"`
	FNREstimate    float64  `json:"fnr_estimate"`
	SeedsRemaining int64    `json:"seeds_remaining"` // -1 = no budget bound
	Quarantined    bool     `json:"quarantined"`
}

// alertStatus is the subset of an /alerts record the dashboard shows.
type alertStatus struct {
	Source   string  `json:"source"`
	Name     string  `json:"name"`
	State    string  `json:"state"`
	Metric   string  `json:"metric"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Fired    uint64  `json:"fired"`
}

// historyPoint decodes both scalar ({"t","v"}) and histogram
// ({"t","count","sum","p50".."p99","exemplar"}) points.
type historyPoint struct {
	T        int64   `json:"t"`
	V        float64 `json:"v"`
	Count    uint64  `json:"count"`
	Sum      float64 `json:"sum"`
	P50      float64 `json:"p50"`
	P95      float64 `json:"p95"`
	P99      float64 `json:"p99"`
	Exemplar string  `json:"exemplar"`
}

type historySeries struct {
	Source string         `json:"source"`
	Name   string         `json:"name"`
	Family string         `json:"family"`
	Kind   string         `json:"kind"`
	Points []historyPoint `json:"points"`
}

type historyResponse struct {
	Federated     bool            `json:"federated"`
	WindowSeconds float64         `json:"window_seconds"`
	Series        []historySeries `json:"series"`
}

// probeStatus mirrors a /probes record: one synthetic-canary row per
// shard. Source is set only by federated endpoints.
type probeStatus struct {
	Source         string  `json:"source"`
	Shard          string  `json:"shard"`
	Alive          bool    `json:"alive"`
	Sessions       int     `json:"sessions"`
	Accepted       int     `json:"accepted"`
	Rejected       int     `json:"rejected"`
	Transport      int     `json:"transport"`
	Overloaded     int     `json:"overloaded"`
	Errors         int     `json:"errors"`
	LastVerdict    string  `json:"last_verdict"`
	LastReason     string  `json:"last_reason"`
	LastRTTSeconds float64 `json:"last_rtt_seconds"`
	LastTrace      string  `json:"last_trace"`
	SeedsRemaining int     `json:"seeds_remaining"`
}

// snapshot is one refresh worth of admin-surface state. Endpoints that
// failed to fetch leave their zero value and append to Errs — a dashboard
// that dies because one route hiccuped is worse than a partial frame.
type snapshot struct {
	Base      string
	FetchedAt time.Time
	Health    healthSummary
	Devices   []deviceHealth
	Alerts    []alertStatus
	History   historyResponse
	Probes    []probeStatus
	HasProbes bool // /probes answered (even with an empty list)
	Errs      []string
}

// fetchJSON GETs base+path and decodes the body into out. Non-2xx statuses
// are not errors by themselves: /healthz deliberately answers 503 with a
// valid body when the fleet is suspect.
func fetchJSON(client *http.Client, base, path string, out any) error {
	resp, err := client.Get(strings.TrimRight(base, "/") + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// fetchSnapshot pulls the four dashboard surfaces from one admin endpoint.
func fetchSnapshot(client *http.Client, base string, now time.Time) snapshot {
	snap := snapshot{Base: base, FetchedAt: now}
	if err := fetchJSON(client, base, "/healthz", &snap.Health); err != nil {
		snap.Errs = append(snap.Errs, err.Error())
	}
	if err := fetchJSON(client, base, "/devices", &snap.Devices); err != nil {
		snap.Errs = append(snap.Errs, err.Error())
	}
	if err := fetchJSON(client, base, "/alerts", &snap.Alerts); err != nil {
		snap.Errs = append(snap.Errs, err.Error())
	}
	if err := fetchJSON(client, base, "/metrics/history", &snap.History); err != nil {
		snap.Errs = append(snap.Errs, err.Error())
	}
	// /probes only exists on cluster admin surfaces; a plain verifier 404s
	// with an HTML body, which fails the decode. Treat that as "no probe
	// tier", not a fetch error.
	if err := fetchJSON(client, base, "/probes", &snap.Probes); err == nil {
		snap.HasProbes = true
	}
	return snap
}

// sparkGlyphs are the eight block-element levels of a sparkline.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as block glyphs, keeping the most recent width
// points and scaling min..max across the kept range. A flat series renders
// at the lowest level: the shape carries the signal, not the absolute bar.
func sparkline(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	if len(values) > width {
		values = values[len(values)-width:]
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkGlyphs)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkGlyphs) {
				idx = len(sparkGlyphs) - 1
			}
		}
		b.WriteRune(sparkGlyphs[idx])
	}
	return b.String()
}

// worstDevices returns up to k devices sorted worst-first: status
// severity, then failure rate, then p95 round-trip (the PUFatt timing
// signal), with the device id as the final tiebreak for stable frames.
func worstDevices(devices []deviceHealth, k int) []deviceHealth {
	out := make([]deviceHealth, len(devices))
	copy(out, devices)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := telemetry.ParseStatus(out[i].Status), telemetry.ParseStatus(out[j].Status)
		if si != sj {
			return si > sj
		}
		if out[i].FailureRate != out[j].FailureRate {
			return out[i].FailureRate > out[j].FailureRate
		}
		if out[i].RTTP95 != out[j].RTTP95 {
			return out[i].RTTP95 > out[j].RTTP95
		}
		return out[i].Device < out[j].Device
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// seriesValues projects a history series onto plottable floats: gauge and
// counter points use v (the collector already stores counter deltas per
// window), histograms use the windowed p95.
func seriesValues(s historySeries) []float64 {
	vals := make([]float64, 0, len(s.Points))
	for _, p := range s.Points {
		if s.Kind == "histogram" {
			vals = append(vals, p.P95)
		} else {
			vals = append(vals, p.V)
		}
	}
	return vals
}

// seriesPriority orders sparkline rows: round-trip timing first (the
// security signal), then session volume, then everything else by name.
func seriesPriority(name string) int {
	switch {
	case strings.Contains(name, "rtt"):
		return 0
	case strings.Contains(name, "sessions"):
		return 1
	case strings.Contains(name, "rejections") || strings.Contains(name, "failures"):
		return 2
	}
	return 3
}

const (
	ansiReset  = "\x1b[0m"
	ansiRed    = "\x1b[31m"
	ansiYellow = "\x1b[33m"
	ansiGreen  = "\x1b[32m"
	ansiDim    = "\x1b[2m"
	ansiBold   = "\x1b[1m"
)

// renderOptions control layout; Color off yields plain text for pipes and
// tests.
type renderOptions struct {
	Color      bool
	TopK       int
	MaxSeries  int
	SparkWidth int
}

func (o renderOptions) paint(code, s string) string {
	if !o.Color {
		return s
	}
	return code + s + ansiReset
}

func (o renderOptions) statusPaint(status string) string {
	switch telemetry.ParseStatus(status) {
	case telemetry.StatusSuspect:
		return o.paint(ansiRed, status)
	case telemetry.StatusOK:
		return o.paint(ansiGreen, status)
	}
	return o.paint(ansiYellow, status)
}

// render writes one dashboard frame. Sections appear only when they have
// content, so a bare verifier with no devices yet still renders cleanly.
func render(w io.Writer, snap snapshot, opts renderOptions) {
	if opts.TopK <= 0 {
		opts.TopK = 8
	}
	if opts.MaxSeries <= 0 {
		opts.MaxSeries = 8
	}
	if opts.SparkWidth <= 0 {
		opts.SparkWidth = 48
	}

	fmt.Fprintf(w, "%s  %s  %s\n", opts.paint(ansiBold, "pufatt-top"), snap.Base,
		snap.FetchedAt.Format("2006-01-02 15:04:05"))
	h := snap.Health.totals()
	fmt.Fprintf(w, "fleet: %s  devices %d  ok %d  degraded %d  reenroll %d  suspect %d",
		opts.statusOrDash(h.Status), h.Devices, h.OK, h.Degraded, h.AwaitingReenroll, h.Suspect)
	if h.Federated || snap.History.Federated {
		fmt.Fprintf(w, "  [federated: %d sources, %d stale]", len(h.Sources), len(h.StaleSources))
	}
	fmt.Fprintln(w)
	for _, e := range snap.Errs {
		fmt.Fprintf(w, "%s\n", opts.paint(ansiRed, "fetch error: "+e))
	}
	fmt.Fprintln(w)

	renderAlerts(w, snap.Alerts, opts)
	renderSeries(w, snap.History, opts)
	renderProbes(w, snap, opts)
	renderDevices(w, snap.Devices, opts)
}

func renderAlerts(w io.Writer, alerts []alertStatus, opts renderOptions) {
	if len(alerts) == 0 {
		return
	}
	firing := 0
	for _, a := range alerts {
		if a.State == "firing" {
			firing++
		}
	}
	sorted := make([]alertStatus, len(alerts))
	copy(sorted, alerts)
	sort.SliceStable(sorted, func(i, j int) bool {
		ri, rj := alertStateRank(sorted[i].State), alertStateRank(sorted[j].State)
		if ri != rj {
			return ri < rj
		}
		return sorted[i].Name < sorted[j].Name
	})
	fmt.Fprintf(w, "%s (%d firing / %d rules)\n", opts.paint(ansiBold, "ALERTS"), firing, len(alerts))
	for _, a := range sorted {
		state := a.State
		switch a.State {
		case "firing":
			state = opts.paint(ansiRed, "FIRING  ")
		case "resolved":
			state = opts.paint(ansiYellow, "resolved")
		default:
			state = opts.paint(ansiDim, "inactive")
		}
		name := a.Name
		if a.Source != "" {
			name = a.Source + "/" + a.Name
		}
		fmt.Fprintf(w, "  %s  %-28s fast %6.2fx  slow %6.2fx  fired %d  %s\n",
			state, name, a.FastBurn, a.SlowBurn, a.Fired, opts.paint(ansiDim, a.Metric))
	}
	fmt.Fprintln(w)
}

func alertStateRank(state string) int {
	switch state {
	case "firing":
		return 0
	case "resolved":
		return 1
	}
	return 2
}

func renderSeries(w io.Writer, hist historyResponse, opts renderOptions) {
	if len(hist.Series) == 0 {
		return
	}
	sorted := make([]historySeries, len(hist.Series))
	copy(sorted, hist.Series)
	sort.SliceStable(sorted, func(i, j int) bool {
		pi, pj := seriesPriority(sorted[i].Name), seriesPriority(sorted[j].Name)
		if pi != pj {
			return pi < pj
		}
		return sorted[i].Name < sorted[j].Name
	})
	shown := sorted
	if len(shown) > opts.MaxSeries {
		shown = shown[:opts.MaxSeries]
	}
	fmt.Fprintf(w, "%s (%.0fs windows)\n", opts.paint(ansiBold, "SERIES"), hist.WindowSeconds)
	for _, s := range shown {
		vals := seriesValues(s)
		last := 0.0
		if len(vals) > 0 {
			last = vals[len(vals)-1]
		}
		label := s.Name
		if s.Source != "" {
			label = s.Source + "/" + s.Name
		}
		suffix := ""
		if s.Kind == "histogram" {
			suffix = " p95"
			if x := lastExemplar(s); x != "" {
				suffix += "  " + opts.paint(ansiDim, "exemplar "+x)
			}
		}
		fmt.Fprintf(w, "  %-44s %s  %.4g%s\n", label, sparkline(vals, opts.SparkWidth), last, suffix)
	}
	if hidden := len(sorted) - len(shown); hidden > 0 {
		fmt.Fprintf(w, "  %s\n", opts.paint(ansiDim, fmt.Sprintf("… %d more series hidden", hidden)))
	}
	fmt.Fprintln(w)
}

// lastExemplar returns the most recent windowed-p99 exemplar trace ID in a
// histogram series — the thread to pull at /debug/traces when the tail
// spikes.
func lastExemplar(s historySeries) string {
	for i := len(s.Points) - 1; i >= 0; i-- {
		if s.Points[i].Exemplar != "" {
			return s.Points[i].Exemplar
		}
	}
	return ""
}

// probeAlertPrefix is the per-shard probe-failure rule family; the shard id
// follows the slash (see cluster.ProbeAlertRules).
const probeAlertPrefix = "cluster-probe-failure/"

// renderProbes shows the synthetic-canary view of each shard: verdict of
// the last probe session, counters, RTT, and whether the shard's
// probe-failure burn rule is firing. A shard whose canary has run zero
// sessions renders as "no data" — absence of probe evidence is not health.
func renderProbes(w io.Writer, snap snapshot, opts renderOptions) {
	if !snap.HasProbes {
		return
	}
	firing := make(map[string]bool)
	for _, a := range snap.Alerts {
		if a.State == "firing" && strings.HasPrefix(a.Name, probeAlertPrefix) {
			firing[strings.TrimPrefix(a.Name, probeAlertPrefix)] = true
		}
	}
	probes := make([]probeStatus, len(snap.Probes))
	copy(probes, snap.Probes)
	sort.SliceStable(probes, func(i, j int) bool {
		if probes[i].Source != probes[j].Source {
			return probes[i].Source < probes[j].Source
		}
		return probes[i].Shard < probes[j].Shard
	})
	firingTotal := 0
	for _, p := range probes {
		if firing[p.Shard] {
			firingTotal++
		}
	}
	fmt.Fprintf(w, "%s (%d shards, %d probe alerts firing)\n",
		opts.paint(ansiBold, "SHARD PROBES"), len(probes), firingTotal)
	if len(probes) == 0 {
		fmt.Fprintf(w, "  %s\n", opts.paint(ansiDim, "no prober attached"))
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintf(w, "  %-16s %-6s %-10s %5s %5s %5s %10s %7s  %s\n",
		"SHARD", "ALIVE", "VERDICT", "OK", "REJ", "ERR", "LASTRTT", "SEEDS", "NOTES")
	for _, p := range probes {
		name := p.Shard
		if p.Source != "" {
			name = p.Source + "/" + p.Shard
		}
		alive := "up"
		if !p.Alive {
			alive = opts.paint(ansiRed, "down")
		}
		verdict, rtt := probeVerdictCell(p, opts)
		notes := p.LastReason
		if firing[p.Shard] {
			alert := opts.paint(ansiRed, "ALERT "+probeAlertPrefix+p.Shard)
			if notes != "" {
				notes = alert + "; " + notes
			} else {
				notes = alert
			}
		} else {
			notes = opts.paint(ansiDim, notes)
		}
		errs := p.Transport + p.Overloaded + p.Errors
		fmt.Fprintf(w, "  %-16s %-6s %-10s %5d %5d %5d %10s %7d  %s\n",
			name, alive, verdict, p.Accepted, p.Rejected, errs, rtt, p.SeedsRemaining, notes)
	}
	fmt.Fprintln(w)
}

// probeVerdictCell renders the last-verdict and RTT columns. Zero sessions
// means the canary has never run: that is "no data", deliberately distinct
// from any healthy or failing verdict.
func probeVerdictCell(p probeStatus, opts renderOptions) (verdict, rtt string) {
	if p.Sessions == 0 {
		return opts.paint(ansiYellow, "no data"), "-"
	}
	rtt = fmt.Sprintf("%.4fs", p.LastRTTSeconds)
	switch p.LastVerdict {
	case "accepted":
		return opts.paint(ansiGreen, p.LastVerdict), rtt
	case "rejected":
		return opts.paint(ansiRed, p.LastVerdict), rtt
	case "":
		return opts.paint(ansiDim, "?"), rtt
	}
	return opts.paint(ansiYellow, p.LastVerdict), rtt
}

func renderDevices(w io.Writer, devices []deviceHealth, opts renderOptions) {
	if len(devices) == 0 {
		return
	}
	worst := worstDevices(devices, opts.TopK)
	fmt.Fprintf(w, "%s (worst %d of %d)\n", opts.paint(ansiBold, "DEVICES"), len(worst), len(devices))
	fmt.Fprintf(w, "  %-24s %-18s %9s %10s %7s %7s  %s\n",
		"DEVICE", "STATUS", "FAILRATE", "RTTp95", "FNR", "SEEDS", "NOTES")
	for _, d := range worst {
		name := d.Device
		if d.Source != "" {
			name = d.Source + "/" + d.Device
		}
		notes := strings.Join(d.Reasons, "; ")
		if d.Quarantined {
			if notes != "" {
				notes = "quarantined; " + notes
			} else {
				notes = "quarantined"
			}
		}
		seeds := fmt.Sprintf("%d", d.SeedsRemaining)
		if d.SeedsRemaining < 0 {
			seeds = "-" // no seed budget bound on this device
		}
		fmt.Fprintf(w, "  %-24s %-18s %9.3f %9.4fs %7.3f %7s  %s\n",
			name, opts.statusPaint(d.Status), d.FailureRate, d.RTTP95, d.FNREstimate,
			seeds, opts.paint(ansiDim, notes))
	}
}

func (o renderOptions) statusOrDash(status string) string {
	if status == "" {
		return o.paint(ansiDim, "—")
	}
	return o.statusPaint(status)
}
