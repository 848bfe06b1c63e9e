package attest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pufatt/internal/telemetry"
)

// Per-route contract tests for the admin surface: method discipline,
// Content-Type, and body well-formedness — plus the concurrency and
// federation suites that lean on live admin servers.

var adminJSONRoutes = []string{
	"/metrics/history", "/alerts", "/debug/vars", "/debug/traces",
	"/debug/journal", "/debug/profiles", "/devices", "/healthz",
}

// glitchAgent fails its first fails exchanges with err, then answers
// through the wrapped prover.
type glitchAgent struct {
	ProverAgent
	fails int
	err   error
}

func (a *glitchAgent) Respond(ch Challenge) (Response, float64, error) {
	if a.fails > 0 {
		a.fails--
		return Response{}, 0, a.err
	}
	return a.ProverAgent.Respond(ch)
}

// TestAdminRouteMethodsAndContentTypes runs the route contract twice: once
// for a plain device name and once for one carrying control bytes and
// invalid UTF-8, which every JSON body and flight-dump line must still
// encode as valid JSON.
func TestAdminRouteMethodsAndContentTypes(t *testing.T) {
	t.Run("plain", func(t *testing.T) { testAdminRoutes(t, "node-e2e") })
	t.Run("control-bytes", func(t *testing.T) { testAdminRoutes(t, "node\x01\a\xff") })
}

func testAdminRoutes(t *testing.T, device string) {
	o := newObsFixture(t, 61)
	o.verifier.Device = device
	o.tel.Registry.Histogram("admin_test_empty_seconds", "never observed", nil)
	o.tel.Registry.Gauge("admin_test_nan", "not a number").Set(math.NaN())
	o.sessions(t, o.prover, 3)
	// One session retried past a transport fault whose message carries
	// control bytes (the span's error attribute and the journal's retry
	// detail), one journal detail with raw control bytes, and one session
	// that exhausts its attempt, so a flight dump holds all of them.
	glitch := Transport(errors.New("link glitch \x01\a"))
	agent := &glitchAgent{ProverAgent: o.prover, fails: 1, err: glitch}
	if _, attempts, err := o.tel.RunSessionRetry(context.Background(), o.verifier, agent, DefaultLink(), RetryPolicy{MaxAttempts: 2}); err != nil || attempts != 2 {
		t.Fatalf("retried session: attempts=%d err=%v, want success on attempt 2", attempts, err)
	}
	o.tel.Journal.Append(telemetry.Event{Kind: telemetry.EventFaultInjected, Device: device, Detail: "glitch \x01\a\xff"})
	agent = &glitchAgent{ProverAgent: o.prover, fails: 1, err: glitch}
	if _, _, err := o.tel.RunSessionRetry(context.Background(), o.verifier, agent, DefaultLink(), RetryPolicy{}); !IsTransport(err) {
		t.Fatalf("exhausted session: err=%v, want a transport error", err)
	}
	o.tick()
	srv := httptest.NewServer(AdminMux(o.tel))
	defer srv.Close()
	client := srv.Client()
	bodies := map[string][]byte{}

	for _, path := range append([]string{"/metrics"}, adminJSONRoutes...) {
		// GET succeeds with the declared Content-Type.
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		wantCT := "application/json; charset=utf-8"
		if path == "/metrics" {
			wantCT = "text/plain; version=0.0.4; charset=utf-8"
		}
		if ct := resp.Header.Get("Content-Type"); ct != wantCT {
			t.Errorf("GET %s: Content-Type %q, want %q", path, ct, wantCT)
		}
		if path != "/metrics" {
			var v any
			if err := json.Unmarshal(body, &v); err != nil {
				t.Errorf("GET %s: body is not JSON: %v\n%s", path, err, body)
			}
			bodies[path] = body
		}

		// HEAD passes the method gate too.
		resp, err = client.Head(srv.URL + path)
		if err != nil {
			t.Fatalf("HEAD %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("HEAD %s: status %d", path, resp.StatusCode)
		}

		// Mutating verbs are refused with an Allow header.
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

	// Malformed queries are client errors, not 500s.
	for _, path := range []string{"/metrics/history?start=bogus", "/debug/profiles?n=bogus", "/debug/profiles?n=-1"} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}

	// The device name decodes to what encoding/json makes of it (invalid
	// UTF-8 becomes U+FFFD); the span's error attribute keeps its bytes.
	var wantDevice string
	if raw, err := json.Marshal(device); err != nil || json.Unmarshal(raw, &wantDevice) != nil {
		t.Fatalf("round-trip device name: %v", err)
	}
	var devices []struct {
		Device string `json:"device"`
	}
	if err := json.Unmarshal(bodies["/devices"], &devices); err != nil || len(devices) != 1 || devices[0].Device != wantDevice {
		t.Errorf("/devices = %s (err=%v), want the one device %q", bodies["/devices"], err, wantDevice)
	}
	var traces []struct {
		Attrs map[string]string `json:"attrs"`
	}
	if err := json.Unmarshal(bodies["/debug/traces"], &traces); err != nil {
		t.Fatal(err)
	}
	spanErrs := 0
	for _, tr := range traces {
		if tr.Attrs["error"] == glitch.Error() {
			spanErrs++
		}
	}
	if spanErrs != 2 {
		t.Errorf("/debug/traces: %d spans carry error %q, want 2", spanErrs, glitch.Error())
	}

	// An empty histogram's quantiles and a NaN gauge are null.
	var vars map[string]any
	if err := json.Unmarshal(bodies["/debug/vars"], &vars); err != nil {
		t.Fatal(err)
	}
	empty, _ := vars["admin_test_empty_seconds"].(map[string]any)
	if nan, ok := vars["admin_test_nan"]; !ok || nan != nil || empty == nil || empty["count"] != 0.0 || empty["p50"] != nil || empty["p99"] != nil {
		t.Errorf("/debug/vars: NaN gauge = %v (present %v), empty histogram = %v; want null, null quantiles", nan, ok, empty)
	}

	// Every line of the fixture's flight dumps is JSON.
	dumps, err := filepath.Glob(filepath.Join(o.dir, "flight-*.jsonl"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("flight dumps: %v (err=%v), want at least one", dumps, err)
	}
	for _, d := range dumps {
		raw, err := os.ReadFile(d)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
			var v map[string]any
			if err := json.Unmarshal([]byte(line), &v); err != nil {
				t.Errorf("%s line %d is not JSON: %v\n%s", filepath.Base(d), i+1, err, line)
			}
		}
	}

	// A federator scraping this admin server records no failures.
	fed, err := telemetry.NewFederator([]telemetry.ScrapeSource{{Name: "solo", BaseURL: srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if n := fed.Poll(context.Background()); n != 1 {
		t.Errorf("federator: %d clean scrapes, want 1: %+v", n, fed.Scrapes())
	}
	if st := fed.Scrapes(); len(st) != 1 || st[0].Failures != 0 {
		t.Errorf("federator scrape health = %+v, want zero failures", st)
	}
}

// TestDebugVarsConcurrentJSON hammers the JSON admin routes while sessions
// mutate every underlying structure; each response must parse as JSON —
// a torn snapshot is a bug even when -race stays quiet.
func TestDebugVarsConcurrentJSON(t *testing.T) {
	o := newObsFixture(t, 67)
	srv := httptest.NewServer(AdminMux(o.tel))
	defer srv.Close()
	client := srv.Client()

	done := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		jitter := NewFaultyLink(o.prover, FaultPlan{Jitter: 1, JitterSeconds: o.verifier.Delta()}, 5)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			agent := ProverAgent(o.prover)
			if i%3 == 0 {
				agent = jitter // keep health transitions and alerts churning
			}
			_, _, _ = o.tel.RunSessionRetry(context.Background(), o.verifier, agent, DefaultLink(), RetryPolicy{})
			o.tick()
		}
	}()

	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 8; i++ {
				for _, path := range adminJSONRoutes {
					resp, err := client.Get(srv.URL + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					var v any
					if err := json.Unmarshal(body, &v); err != nil {
						t.Errorf("GET %s: torn JSON under load: %v", path, err)
					}
				}
			}
		}()
	}
	readers.Wait()
	close(done)
	writers.Wait()
}

// TestConcurrentFlightDumpUniqueFilenames drives two telemetry bundles
// dumping into one shared directory concurrently: the process-wide dump
// sequence must keep every filename unique (the clobbering this guards
// against was a real cross-bundle collision).
func TestConcurrentFlightDumpUniqueFilenames(t *testing.T) {
	dir := t.TempDir()
	a := newFleetTelemetry()
	b := newFleetTelemetry()
	a.SetFlightDir(dir)
	b.SetFlightDir(dir)

	const dumpsPerBundle = 16
	var wg sync.WaitGroup
	paths := make(chan string, 2*dumpsPerBundle)
	for _, bundle := range []*Telemetry{a, b} {
		wg.Add(1)
		go func(tl *Telemetry) {
			defer wg.Done()
			for i := 0; i < dumpsPerBundle; i++ {
				path, err := tl.flightDump("rejected", telemetry.TraceID(uint64(i+1)))
				if err != nil {
					t.Errorf("flight dump: %v", err)
					return
				}
				paths <- path
			}
		}(bundle)
	}
	wg.Wait()
	close(paths)

	seen := make(map[string]bool)
	for p := range paths {
		if seen[p] {
			t.Errorf("duplicate flight dump path %s", p)
		}
		seen[p] = true
	}
	if len(seen) != 2*dumpsPerBundle {
		t.Fatalf("unique dump paths = %d, want %d", len(seen), 2*dumpsPerBundle)
	}
	onDisk, err := filepath.Glob(filepath.Join(dir, "flight-*-rejected.jsonl"))
	if err != nil || len(onDisk) != 2*dumpsPerBundle {
		t.Fatalf("dumps on disk = %d (err=%v), want %d", len(onDisk), err, 2*dumpsPerBundle)
	}
	for _, p := range onDisk {
		if fi, serr := os.Stat(p); serr != nil || fi.Size() == 0 {
			t.Errorf("dump %s: stat err=%v, empty=%v", p, serr, serr == nil && fi.Size() == 0)
		}
	}
}

// TestFlightDumpsBounded hammers a flight directory with the dumps of a
// node behind a dead link, swept again and again: the directory keeps at
// most maxFlightDumps dumps, each sweep's dump survives as the newest, the
// sequence continues past a dump an earlier process left behind, and files
// outside the dump name pattern are never removed.
func TestFlightDumpsBounded(t *testing.T) {
	f := newFixture(t, 65)
	T := newFleetTelemetry()
	dir := t.TempDir()
	T.SetFlightDir(dir)
	const leftover = 900000 // a dump from an earlier, longer-lived process
	for _, name := range []string{fmt.Sprintf("flight-%d-transport.jsonl", leftover), "flight-notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fleet := NewFleet()
	fleet.Telemetry = T
	if err := fleet.Enroll(1, f.verifier, NewFaultyLink(f.prover, FaultPlan{Drop: 1}, 9), DefaultLink()); err != nil {
		t.Fatal(err)
	}

	newest := uint64(leftover)
	for i := 0; i < 2*maxFlightDumps; i++ {
		if rep := fleet.Sweep(context.Background(), RetryPolicy{MaxAttempts: 1}); len(rep.Healthy) != 0 {
			t.Fatalf("sweep %d: %s, want the dead node to fail", i+1, rep)
		}
		dumps, err := filepath.Glob(filepath.Join(dir, "flight-*.jsonl"))
		if err != nil || len(dumps) > maxFlightDumps {
			t.Fatalf("sweep %d: %d dumps on disk (err=%v), want at most %d", i+1, len(dumps), err, maxFlightDumps)
		}
		listed, err := flightRing("transport").List(dir)
		if err != nil {
			t.Fatal(err)
		}
		last := listed[len(listed)-1].Seq
		if last <= newest {
			t.Fatalf("sweep %d: newest dump seq %d, want a new dump past %d", i+1, last, newest)
		}
		newest = last
	}
	if listed, _ := flightRing("transport").List(dir); len(listed) != maxFlightDumps {
		t.Fatalf("dumps after the storm = %d, want %d", len(listed), maxFlightDumps)
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("flight-%d-transport.jsonl", leftover))); !os.IsNotExist(err) {
		t.Fatalf("oldest dump survived the storm: stat err=%v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "flight-notes.txt")); err != nil {
		t.Fatalf("non-dump file removed: %v", err)
	}
}

// TestFlightRejectedDumpSurvivesTransportStorm writes one rejected
// session's dump and then storms the same directory with transport
// failures: the rejection is security evidence and must outlive any amount
// of availability noise, and no trigger keeps more than maxFlightDumps.
func TestFlightRejectedDumpSurvivesTransportStorm(t *testing.T) {
	f := newFixture(t, 66)
	T := newFleetTelemetry()
	dir := t.TempDir()
	T.SetFlightDir(dir)
	infected := NewProver(f.image.Clone(), f.prover.Port, f.prover.FreqHz)
	for i := 0; i < 50; i++ {
		infected.Image.Mem[f.image.Layout.PayloadAddr+i] ^= 0x1
	}
	res, _, err := T.RunSessionRetry(context.Background(), f.verifier, infected, DefaultLink(), RetryPolicy{MaxAttempts: 1})
	if err != nil || res.Accepted {
		t.Fatalf("infected session: accepted=%v err=%v, want a rejection", res.Accepted, err)
	}
	rejected, err := filepath.Glob(filepath.Join(dir, "flight-*-rejected.jsonl"))
	if err != nil || len(rejected) != 1 {
		t.Fatalf("rejected dumps = %v (err=%v), want one", rejected, err)
	}

	fleet := NewFleet()
	fleet.Telemetry = T
	if err := fleet.Enroll(1, f.verifier, NewFaultyLink(f.prover, FaultPlan{Drop: 1}, 9), DefaultLink()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*maxFlightDumps; i++ {
		fleet.Sweep(context.Background(), RetryPolicy{MaxAttempts: 1})
	}
	for trigger, want := range map[string]int{"rejected": 1, "transport": maxFlightDumps} {
		dumps, err := filepath.Glob(filepath.Join(dir, "flight-*-"+trigger+".jsonl"))
		if err != nil || len(dumps) != want {
			t.Errorf("%s dumps after the storm = %d (err=%v), want %d", trigger, len(dumps), err, want)
		}
	}
	if _, err := os.Stat(rejected[0]); err != nil {
		t.Fatalf("rejected dump evicted by transport failures: %v", err)
	}
}

// TestFederationOverLiveAdminServers spins up two real in-process admin
// servers — each backed by its own attestation traffic — and asserts the
// federator's merged surfaces label every record with its source shard.
func TestFederationOverLiveAdminServers(t *testing.T) {
	shards := map[string]*obsFixture{}
	sources := make([]telemetry.ScrapeSource, 0, 2)
	for i, name := range []string{"east", "west"} {
		o := newObsFixture(t, 71+uint64(i))
		o.verifier.Device = name + "-node-0"
		o.sessions(t, o.prover, 4)
		o.tick()
		addr, closeFn, err := StartAdmin("127.0.0.1:0", o.tel)
		if err != nil {
			t.Fatal(err)
		}
		defer closeFn()
		shards[name] = o
		sources = append(sources, telemetry.ScrapeSource{Name: name, BaseURL: "http://" + addr.String()})
	}

	fed, err := telemetry.NewFederator(sources)
	if err != nil {
		t.Fatal(err)
	}
	if n := fed.Poll(context.Background()); n != 2 {
		t.Fatalf("healthy scrapes = %d, want 2", n)
	}
	if h := fed.Health(); h.Status != "ok" || len(h.Stale) != 0 {
		t.Fatalf("federated health = %+v, want ok with no stale sources", h)
	}

	srv := httptest.NewServer(fed.Mux())
	defer srv.Close()

	var devices []struct {
		Source string `json:"source"`
		Device string `json:"device"`
		Status string `json:"status"`
	}
	resp, err := http.Get(srv.URL + "/devices")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&devices); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(devices) != 2 {
		t.Fatalf("merged devices = %d, want 2", len(devices))
	}
	got := map[string]string{}
	for _, d := range devices {
		got[d.Source] = d.Device
		if d.Status != "ok" {
			t.Errorf("device %s/%s status %q, want ok", d.Source, d.Device, d.Status)
		}
	}
	if got["east"] != "east-node-0" || got["west"] != "west-node-0" {
		t.Fatalf("source labels wrong: %v", got)
	}

	// The merged history carries both shards' RTT series, each labeled.
	var hist struct {
		Federated bool `json:"federated"`
		Series    []struct {
			Source string `json:"source"`
			Name   string `json:"name"`
		} `json:"series"`
	}
	resp, err = http.Get(srv.URL + "/metrics/history")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !hist.Federated {
		t.Fatal("merged history not marked federated")
	}
	rtt := map[string]bool{}
	for _, s := range hist.Series {
		if s.Name == "attest_rtt_seconds" {
			rtt[s.Source] = true
		}
	}
	if !rtt["east"] || !rtt["west"] {
		t.Fatalf("merged RTT series sources = %v, want east and west", rtt)
	}

	// Both shards' alert rule sets merge under their source labels.
	var alerts []struct {
		Source string `json:"source"`
		Name   string `json:"name"`
	}
	resp, err = http.Get(srv.URL + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&alerts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	perSource := map[string]int{}
	for _, a := range alerts {
		perSource[a.Source]++
	}
	if perSource["east"] == 0 || perSource["east"] != perSource["west"] {
		t.Fatalf("merged alert rules per source = %v, want equal non-zero counts", perSource)
	}
}
