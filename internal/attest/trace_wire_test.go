package attest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pufatt/internal/telemetry"
)

// --- frame-codec compatibility: v1 ↔ v2 ---

func TestV1ChallengeFrameDecodesUnchanged(t *testing.T) {
	// An old-format (v1) frame, byte-for-byte as a pre-trace peer emits it,
	// must decode to the same challenge with no trace context.
	body := make([]byte, 16)
	binary.LittleEndian.PutUint64(body[0:], 42)
	binary.LittleEndian.PutUint32(body[8:], 0xdead)
	binary.LittleEndian.PutUint32(body[12:], 0xbeef)
	frame := rawFrame(frameMagic, 1, frameChallenge, body, crc32.ChecksumIEEE(body))

	ch, tc, err := ReadChallengeTraced(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("v1 frame rejected: %v", err)
	}
	if ch.Session != 42 || ch.Nonce != 0xdead || ch.PUFSeed != 0xbeef {
		t.Fatalf("v1 challenge decoded as %+v", ch)
	}
	if tc.Valid() {
		t.Fatalf("v1 frame produced a trace context: %+v", tc)
	}
}

func TestTracedChallengeRoundTrip(t *testing.T) {
	ch := fixedChallenge(7, 0x1234)
	tc := telemetry.TraceContext{Trace: 0x1111222233334444, Span: 0x5555666677778888}

	var buf bytes.Buffer
	if err := WriteChallengeTraced(&buf, ch, tc); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[2]; got != frameVersionTraced {
		t.Fatalf("traced frame version byte = %d, want %d", got, frameVersionTraced)
	}
	got, gtc, err := ReadChallengeTraced(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != ch {
		t.Fatalf("challenge round trip: %+v != %+v", got, ch)
	}
	if gtc != tc {
		t.Fatalf("trace context round trip: %+v != %+v", gtc, tc)
	}
	// A caller that never asks for the context still gets the payload: the
	// extension is transparent to trace-blind decoding paths.
	plain, err := ReadChallenge(bytes.NewReader(buf.Bytes()))
	if err != nil || plain != ch {
		t.Fatalf("trace-blind decode of v2 frame: %+v, %v", plain, err)
	}
}

// tracedFrame builds a v2 challenge frame by hand, letting the test mangle
// the extension while keeping the outer CRC valid.
func tracedFrame(ch Challenge, ext []byte) []byte {
	payload := make([]byte, 16)
	binary.LittleEndian.PutUint64(payload[0:], ch.Session)
	binary.LittleEndian.PutUint32(payload[8:], ch.Nonce)
	binary.LittleEndian.PutUint32(payload[12:], ch.PUFSeed)
	body := make([]byte, 2+len(ext)+len(payload))
	binary.LittleEndian.PutUint16(body[0:], uint16(len(ext)))
	copy(body[2:], ext)
	copy(body[2+len(ext):], payload)
	return rawFrame(frameMagic, frameVersionTraced, frameChallenge, body, crc32.ChecksumIEEE(body))
}

func TestCorruptTraceExtKeepsPayload(t *testing.T) {
	ch := fixedChallenge(9, 0x77)
	ext := encodeTraceExt(telemetry.TraceContext{Trace: 0xaaaa, Span: 0xbbbb})
	ext[3] ^= 0x40 // mangle a trace ID byte: the inner CRC must now fail
	before := tel.TraceHeaders.With("corrupt").Value()

	got, tc, err := ReadChallengeTraced(bytes.NewReader(tracedFrame(ch, ext)))
	if err != nil {
		t.Fatalf("corrupt trace ext killed the frame: %v", err)
	}
	if got != ch {
		t.Fatalf("payload mangled alongside the ext: %+v", got)
	}
	if tc.Valid() {
		t.Fatalf("corrupt ext yielded a trace context: %+v", tc)
	}
	if after := tel.TraceHeaders.With("corrupt").Value(); after != before+1 {
		t.Fatalf("attest_trace_headers_total{event=corrupt} %d → %d, want +1", before, after)
	}
}

func TestUnknownSizeTraceExtSkipped(t *testing.T) {
	// A future revision's longer extension: unknown content, valid frame.
	ch := fixedChallenge(3, 0x55)
	got, tc, err := ReadChallengeTraced(bytes.NewReader(tracedFrame(ch, make([]byte, 32))))
	if err != nil || got != ch || tc.Valid() {
		t.Fatalf("unknown ext handling: ch=%+v tc=%+v err=%v", got, tc, err)
	}
}

func TestMalformedTraceExtRejected(t *testing.T) {
	// An extension length overrunning the body lies about the payload
	// boundary — that IS a frame fault, and a transport-class one.
	body := make([]byte, 6)
	binary.LittleEndian.PutUint16(body[0:], 500)
	frame := rawFrame(frameMagic, frameVersionTraced, frameChallenge, body, crc32.ChecksumIEEE(body))
	before := tel.FramesRejected.With("trace_ext").Value()
	_, _, err := ReadChallengeTraced(bytes.NewReader(frame))
	if err == nil || !strings.Contains(err.Error(), "extension") {
		t.Fatalf("overrunning ext err = %v, want ErrTraceExt", err)
	}
	if !IsTransport(err) {
		t.Fatalf("ErrTraceExt not transport-class: %v", err)
	}
	if got := tel.FramesRejected.With("trace_ext").Value() - before; got != 1 {
		t.Fatalf("attest_frames_rejected_total{reason=trace_ext} delta = %d, want 1", got)
	}
}

func TestCorruptTraceExtDoesNotKillSession(t *testing.T) {
	// End to end: a prover served a challenge whose trace header is mangled
	// (inner CRC bad, outer CRC good) must still answer the session.
	f := newFixture(t, 61)
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		_ = Serve(server, f.prover)
		server.Close()
	}()

	ch := fixedChallenge(1, 0x2468)
	ext := encodeTraceExt(telemetry.TraceContext{Trace: 0x1212, Span: 0x3434})
	ext[0] ^= 0x01
	werr := make(chan error, 1)
	go func() {
		_, err := client.Write(tracedFrame(ch, ext))
		werr <- err
	}()
	resp, err := ReadResponse(client)
	if err != nil {
		t.Fatalf("session died on corrupt trace header: %v", err)
	}
	if resp.Session != ch.Session {
		t.Fatalf("response for session %d, want %d", resp.Session, ch.Session)
	}
	if _, err := readTime(client); err != nil {
		t.Fatalf("time trailer: %v", err)
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
}

// FuzzChallengeFrameDecode fuzzes the trace-aware decoder. The seed corpus
// pins the compatibility matrix: v1 frames, traced v2 frames, corrupt and
// oversized extensions, truncations, and junk.
func FuzzChallengeFrameDecode(f *testing.F) {
	ch := fixedChallenge(11, 0x99)
	var v1 bytes.Buffer
	_ = WriteChallenge(&v1, ch)
	f.Add(v1.Bytes())
	var v2 bytes.Buffer
	_ = WriteChallengeTraced(&v2, ch, telemetry.TraceContext{Trace: 5, Span: 6})
	f.Add(v2.Bytes())
	badExt := encodeTraceExt(telemetry.TraceContext{Trace: 5, Span: 6})
	badExt[5] ^= 0x10
	f.Add(tracedFrame(ch, badExt))
	f.Add(tracedFrame(ch, make([]byte, 64)))
	f.Add(v2.Bytes()[:headerSize+3])
	f.Add([]byte{0x7e, 0xa7, 1, 1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, tc, err := ReadChallengeTraced(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to something decodable with the
		// same content — the codec cannot accept what it cannot emit.
		var buf bytes.Buffer
		if werr := WriteChallengeTraced(&buf, got, tc); werr != nil {
			t.Fatalf("decoded challenge does not re-encode: %v", werr)
		}
		rt, rtc, rerr := ReadChallengeTraced(bytes.NewReader(buf.Bytes()))
		if rerr != nil || rt != got || rtc != tc {
			t.Fatalf("re-encode round trip: %+v/%+v/%v, want %+v/%+v", rt, rtc, rerr, got, tc)
		}
	})
}

// --- cross-process trace stitching ---

func TestTCPTraceStitching(t *testing.T) {
	f := newFixture(t, 62)
	f.verifier.Device = "stitch-dev"
	srv := &Server{Agent: f.prover}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RequestContext(context.Background(), conn, f.verifier, DefaultLink())
	conn.Close()
	if err != nil || !res.Accepted {
		t.Fatalf("session failed: %v / %+v", err, res)
	}

	// Both halves run in this process and share the default tracer, so the
	// ring now holds two roots with one trace ID: the verifier's session
	// span and the prover's adopted serving span.
	var session *telemetry.Span
	for _, sp := range tel.Tracer.Recent() {
		if sp.Name() == "attest.session.tcp" && sp.Attr("device") == "stitch-dev" {
			session = sp
		}
	}
	if session == nil {
		t.Fatal("verifier session span not recorded")
	}
	roots := tel.Tracer.ByTrace(session.TraceID())
	var prove *telemetry.Span
	for _, sp := range roots {
		if sp.Name() == "attest.prove" {
			prove = sp
		}
	}
	if prove == nil {
		t.Fatalf("prover span not stitched into trace %s (%d roots)", session.TraceID(), len(roots))
	}
	if prove.ParentSpanID() != session.SpanID() {
		t.Fatalf("prover span parent %s, want verifier span %s", prove.ParentSpanID(), session.SpanID())
	}
	// The session tree carries the modelled link/compute segments.
	want := map[string]bool{"link.challenge": false, "compute": false, "link.response": false}
	for _, c := range session.Children() {
		if _, ok := want[c.Name()]; ok {
			want[c.Name()] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("session span missing %q segment", name)
		}
	}
}

// --- flight recorder ---

func TestFlightDumpCarriesSessionTrace(t *testing.T) {
	// The acceptance path: a fault-injected failing session must leave a
	// flight-recorder dump whose events carry the same trace ID the
	// verifier's trace ring shows for that session.
	f := newFixture(t, 63)
	T := newFleetTelemetry()
	dir := t.TempDir()
	T.SetFlightDir(dir)

	inj := NewFaultyLink(f.prover, PlanFor(FaultDrop, 0, 0), 77) // dead link
	inj.SetTelemetry(T)
	fleet := NewFleet()
	fleet.Telemetry = T
	if err := fleet.Enroll(4, f.verifier, inj, DefaultLink()); err != nil {
		t.Fatal(err)
	}
	report := fleet.Sweep(context.Background(), RetryPolicy{MaxAttempts: 2})
	if len(report.Unreachable) != 1 {
		t.Fatalf("report = %s, want node unreachable", report.String())
	}

	// The dump sequence is process-wide (collision-proof across bundles),
	// so the filename's number depends on test order: glob for the trigger.
	dumps, err := filepath.Glob(filepath.Join(dir, "flight-*-transport.jsonl"))
	if err != nil || len(dumps) != 1 {
		t.Fatalf("flight dumps = %v (err %v), want exactly one transport dump", dumps, err)
	}
	data, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	if !sc.Scan() {
		t.Fatal("empty flight dump")
	}
	var header struct {
		FlightRecorder string `json:"flight_recorder"`
		Events         int    `json:"events"`
	}
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		t.Fatalf("dump header not JSON: %v", err)
	}
	_, traceStr, ok := strings.Cut(header.FlightRecorder, "trace=")
	if !ok {
		t.Fatalf("dump header %q carries no trace ID", header.FlightRecorder)
	}
	if header.Events == 0 {
		t.Fatal("dump recorded zero events")
	}
	var matched int
	for sc.Scan() {
		var ev struct {
			TraceID string `json:"trace_id"`
			Kind    string `json:"kind"`
			Device  string `json:"device"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("dump line not JSON: %v (%s)", err, sc.Text())
		}
		if ev.TraceID == traceStr {
			matched++
			if ev.Device != "node-4" {
				t.Fatalf("event device %q, want node-4", ev.Device)
			}
		}
	}
	if matched == 0 {
		t.Fatalf("no dumped event carries the failing session's trace %s", traceStr)
	}
	// And that trace ID resolves in the verifier's trace ring — the same
	// tree /debug/traces serves.
	var id telemetry.TraceID
	if _, err := fmt.Sscanf(traceStr, "%x", (*uint64)(&id)); err != nil {
		t.Fatalf("trace id %q: %v", traceStr, err)
	}
	if len(T.Tracer.ByTrace(id)) == 0 {
		t.Fatalf("trace %s not present in the tracer ring", traceStr)
	}
	// Overflowing the bundle's rings must surface in its drop counters:
	// one event past the journal's capacity, and a few more sweeps past
	// the 8-root tracer ring.
	for i := 0; i <= telemetry.DefaultJournalCapacity; i++ {
		T.Journal.Append(telemetry.Event{Kind: telemetry.EventRetry, Device: "node-4"})
	}
	if d := T.Journal.Dropped(); d == 0 || T.EventsDropped.Value() != d {
		t.Fatalf("telemetry_journal_events_dropped_total = %d, journal dropped %d; want equal and nonzero", T.EventsDropped.Value(), d)
	}
	for i := 0; i < 8; i++ {
		fleet.Sweep(context.Background(), RetryPolicy{MaxAttempts: 1})
	}
	if d := T.Tracer.Dropped(); d == 0 || T.SpansDropped.Value() != d {
		t.Fatalf("telemetry_spans_dropped_total = %d, tracer dropped %d; want equal and nonzero", T.SpansDropped.Value(), d)
	}
}

// --- per-device health: suspect from timing alone ---

// inflatedAgent adds a fixed simulated delay to every response — the
// overclocking/proxy signature: the answer is correct, just late.
type inflatedAgent struct {
	inner ProverAgent
	extra float64
}

func (a *inflatedAgent) Respond(ch Challenge) (Response, float64, error) {
	resp, compute, err := a.inner.Respond(ch)
	return resp, compute + a.extra, err
}

func TestRTTInflationDrivesDeviceSuspect(t *testing.T) {
	clean := newFixture(t, 64)
	hot := newFixture(t, 65)
	clean.verifier.Device = "control"
	hot.verifier.Device = "proxied"
	T := newFleetTelemetry()
	link := DefaultLink()

	// Calibrate the timing SLO off one clean session: the bound sits 10 ms
	// above the honest RTT, and the inflated device runs 20 ms over that —
	// still comfortably inside δ (NetworkAllowance alone is 50 ms), so
	// every inflated session is ACCEPTED and only the timing SLO can trip.
	res, _, err := T.session(telemetry.TraceContext{}, clean.verifier, link, inMemory(clean.prover), 0)
	if err != nil || !res.Accepted {
		t.Fatalf("calibration session: %v / %+v", err, res)
	}
	slo := telemetry.DefaultSLO()
	slo.MinSessions = 4
	slo.MaxRTTP95 = res.Elapsed + 0.010
	T.Health.SetSLO(slo)

	inflated := &inflatedAgent{inner: hot.prover, extra: 0.030}
	for i := 0; i < 12; i++ {
		cres, _, cerr := T.session(telemetry.TraceContext{}, clean.verifier, link, inMemory(clean.prover), 0)
		if cerr != nil || !cres.Accepted {
			t.Fatalf("clean session %d: %v / %+v", i, cerr, cres)
		}
		hres, _, herr := T.session(telemetry.TraceContext{}, hot.verifier, link, inMemory(inflated), 0)
		if herr != nil || !hres.Accepted {
			t.Fatalf("inflated session %d not accepted (%v / %+v) — inflation must stay under δ", i, herr, hres)
		}
	}

	control, _ := T.Health.Get("control")
	if control.Status != telemetry.StatusOK {
		t.Fatalf("control device status = %v (reasons %v), want ok", control.Status, control.Reasons)
	}
	if len(control.Transitions) != 0 {
		t.Fatalf("control device logged %d transitions, want zero false transitions", len(control.Transitions))
	}
	proxied, _ := T.Health.Get("proxied")
	if proxied.Status != telemetry.StatusSuspect {
		t.Fatalf("proxied device status = %v (reasons %v), want suspect", proxied.Status, proxied.Reasons)
	}
	if proxied.Rejected != 0 {
		t.Fatalf("proxied device rejected %d sessions — suspect must come from timing alone", proxied.Rejected)
	}
	if len(proxied.Reasons) != 1 || !strings.Contains(proxied.Reasons[0], "rtt p95") {
		t.Fatalf("proxied reasons = %v, want a single rtt p95 violation", proxied.Reasons)
	}
	if n := len(proxied.Transitions); n != 1 {
		t.Fatalf("proxied transitions = %d, want exactly one (ok → suspect)", n)
	}
	if tr := proxied.Transitions[0]; tr.From != telemetry.StatusOK || tr.To != telemetry.StatusSuspect {
		t.Fatalf("transition %v → %v, want ok → suspect", tr.From, tr.To)
	}
	if T.StatusTransitions.With("suspect").Value() != 1 {
		t.Fatalf("attest_device_status_transitions_total{to=suspect} = %d, want 1", T.StatusTransitions.With("suspect").Value())
	}
}

// --- admin surface under concurrency ---

// TestAdminEndpointsRaceWithSweep hammers every admin route while a fleet
// sweep is live; run under -race (scripts/verify.sh does) it proves the
// telemetry read paths never tear against the attestation hot path.
func TestAdminEndpointsRaceWithSweep(t *testing.T) {
	fleet, _, _ := buildFleet(t, 4)
	T := newFleetTelemetry()
	fleet.Telemetry = T
	srv := httptest.NewServer(AdminMux(T))
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			fleet.Sweep(context.Background(), RetryPolicy{MaxAttempts: 3})
		}
	}()
	paths := []string{"/metrics", "/debug/vars", "/debug/traces", "/debug/journal", "/devices", "/healthz"}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				for _, p := range paths {
					resp, err := http.Get(srv.URL + p)
					if err != nil {
						t.Errorf("GET %s: %v", p, err)
						return
					}
					if resp.StatusCode != http.StatusOK && p != "/healthz" {
						t.Errorf("GET %s: status %d", p, resp.StatusCode)
					}
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	// After the dust settles the health surface reflects the sweeps.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum struct {
		Status  string `json:"status"`
		Devices int    `json:"devices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Devices != 4 {
		t.Fatalf("healthz devices = %d, want 4", sum.Devices)
	}
}
