package attest

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"pufatt/internal/telemetry"
)

// This file exposes the attestation stack's operational surface over HTTP:
// Prometheus metrics, expvar-style JSON, recent attestation traces, and the
// runtime profiler. The endpoint is strictly opt-in — nothing listens until
// StartAdmin is called — and is meant for a loopback or management network,
// not the attestation data path.

// AdminMux returns an http.ServeMux serving the telemetry admin surface:
//
//	/metrics          Prometheus text exposition (format 0.0.4)
//	/metrics/history  windowed time-series history as JSON; range queries
//	                  via ?metric=&start=&end=&step=
//	/alerts           SLO burn-rate alert statuses as JSON
//	/debug/vars       expvar-style JSON of every registered metric
//	/debug/traces     recent attestation span trees as JSON
//	/debug/journal    the flight recorder's retained protocol events as JSON
//	/debug/profiles   the profile ring's sidecar index as JSON, newest
//	                  first; ?n= limits the entry count
//	/devices          per-device health snapshots (SLO judgements) as JSON
//	/healthz          fleet-wide health summary; HTTP 503 when any device is
//	                  suspect, 200 otherwise
//	/debug/pprof/     the standard runtime profiler endpoints
//
// Every JSON body is encoding/json of the named telemetry value
// (AlertStatus, DeviceHealth, Event, Span, Series, ProfileCapture, the
// Registry's Vars), one line per body; NaN and ±Inf encode as null. All
// routes are GET/HEAD only (405 otherwise). A nil Telemetry means the
// package default (the one the attestation hot paths record into).
func AdminMux(t *Telemetry) *http.ServeMux {
	if t == nil {
		t = tel
	}
	mux := http.NewServeMux()
	serve := func(path string, fn http.HandlerFunc) {
		mux.HandleFunc(path, telemetry.GetOnly(telemetry.ContentJSON, fn))
	}
	mux.HandleFunc("/metrics", telemetry.GetOnly("text/plain; version=0.0.4; charset=utf-8", func(w http.ResponseWriter, _ *http.Request) {
		_ = t.Registry.WritePrometheus(w)
	}))
	serve("/metrics/history", func(w http.ResponseWriter, r *http.Request) {
		q, err := telemetry.ParseRangeQuery(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_ = telemetry.WriteJSON(w, t.History.History(q))
	})
	serve("/alerts", func(w http.ResponseWriter, _ *http.Request) {
		_ = telemetry.WriteJSON(w, t.Alerts.Snapshot())
	})
	serve("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		_ = telemetry.WriteJSON(w, t.Registry.Vars())
	})
	serve("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		_ = telemetry.WriteJSON(w, t.Tracer.Recent())
	})
	serve("/debug/journal", func(w http.ResponseWriter, _ *http.Request) {
		_ = telemetry.WriteJSON(w, t.Journal.Recent())
	})
	serve("/debug/profiles", func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if raw := r.URL.Query().Get("n"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("attest: bad n %q", raw), http.StatusBadRequest)
				return
			}
			limit = n
		}
		_ = telemetry.WriteJSON(w, t.Profiler.Recent(limit))
	})
	serve("/devices", func(w http.ResponseWriter, _ *http.Request) {
		_ = telemetry.WriteJSON(w, t.Health.Snapshot())
	})
	serve("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		sum := t.Health.Summary()
		// A suspect device is a security signal: fail the health check so
		// orchestration-level alerting fires without parsing the body.
		// Degraded is availability trouble and awaiting-reenroll a planned
		// lifecycle state — both reported, both still 200.
		if sum.Status() == telemetry.StatusSuspect {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = telemetry.WriteJSON(w, struct {
			Status string `json:"status"`
			telemetry.HealthSummary
		}{sum.Status().String(), sum})
	})
	// pprof registers on http.DefaultServeMux via init; re-register its
	// handlers explicitly so the admin endpoint works on a private mux
	// without dragging DefaultServeMux (and whatever else registered
	// there) onto a network listener.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartAdmin serves the admin mux on the TCP address (":0" picks a free
// port) and returns the bound address plus a close function that stops the
// listener and aborts in-flight requests. A nil Telemetry serves the
// package default.
func StartAdmin(addr string, t *Telemetry) (net.Addr, func() error, error) {
	return telemetry.Serve(addr, AdminMux(t))
}

// StartAdmin attaches an admin endpoint to the prover server's lifecycle:
// it serves the package-default telemetry on addr and is shut down by
// Server.Close along with the attestation listener.
func (s *Server) StartAdmin(addr string) (net.Addr, error) {
	a, closeFn, err := StartAdmin(addr, nil)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = closeFn()
		return nil, net.ErrClosed
	}
	s.adminClose = closeFn
	s.mu.Unlock()
	return a, nil
}
