package attest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pufatt/internal/core"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

// --- frame validation ---

// rawFrame builds a frame by hand so tests can mangle any field.
func rawFrame(magic uint16, version, ftype byte, body []byte, crc uint32) []byte {
	buf := make([]byte, headerSize+len(body))
	binary.LittleEndian.PutUint16(buf[0:], magic)
	buf[2] = version
	buf[3] = ftype
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[8:], crc)
	copy(buf[headerSize:], body)
	return buf
}

func TestFrameValidation(t *testing.T) {
	body := []byte{1, 2, 3, 4}
	good := crc32.ChecksumIEEE(body)
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"bad magic", rawFrame(0x1234, frameVersion, frameChallenge, body, good), ErrBadMagic},
		{"bad version", rawFrame(frameMagic, 99, frameChallenge, body, good), ErrBadVersion},
		{"wrong type", rawFrame(frameMagic, frameVersion, frameResponse, body, good), ErrFrameType},
		{"bad crc", rawFrame(frameMagic, frameVersion, frameChallenge, body, good^1), ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readFrame(bytes.NewReader(tc.frame), frameChallenge)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !IsTransport(err) {
				t.Errorf("%v not classified as transport", err)
			}
		})
	}
	t.Run("hostile length", func(t *testing.T) {
		frame := rawFrame(frameMagic, frameVersion, frameChallenge, nil, 0)
		binary.LittleEndian.PutUint32(frame[4:], maxFrame+1)
		if _, err := readFrame(bytes.NewReader(frame), frameChallenge); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		frame := rawFrame(frameMagic, frameVersion, frameChallenge, body, good)
		if _, err := readFrame(bytes.NewReader(frame[:len(frame)-2]), frameChallenge); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
}

// --- time trailer validation (the adversary-influenced field) ---

func TestTimeTrailerRejectsHostileValues(t *testing.T) {
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-9}
	before := tel.FramesRejected.With("time").Value()
	for _, bad := range hostile {
		// An adversarial prover can put any bit pattern on the wire:
		// bypass writeTime's own validation and craft the frame directly.
		var body [8]byte
		binary.LittleEndian.PutUint64(body[:], math.Float64bits(bad))
		var buf bytes.Buffer
		if err := writeFrame(&buf, frameTime, body[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := readTime(&buf); !errors.Is(err, ErrBadTime) {
			t.Errorf("readTime(%v) err = %v, want ErrBadTime", bad, err)
		}
		// The honest encoder must refuse the same values outright.
		if err := writeTime(io.Discard, bad); !errors.Is(err, ErrBadTime) {
			t.Errorf("writeTime(%v) err = %v, want ErrBadTime", bad, err)
		}
	}
	// Each decoded hostile trailer is a counted frame rejection; the
	// encoder's refusals never reach the wire and are not.
	if got := tel.FramesRejected.With("time").Value() - before; got != uint64(len(hostile)) {
		t.Errorf("attest_frames_rejected_total{reason=time} delta = %d, want %d", got, len(hostile))
	}
	var buf bytes.Buffer
	if err := writeTime(&buf, 0.125); err != nil {
		t.Fatal(err)
	}
	got, err := readTime(&buf)
	if err != nil || got != 0.125 {
		t.Fatalf("round trip = %v, %v", got, err)
	}
}

// nanTimeAgent forwards to the prover but reports a hostile NaN compute
// time, modelling a prover that tries to blind the timing decision.
type nanTimeAgent struct{ inner ProverAgent }

func (a nanTimeAgent) Respond(ch Challenge) (Response, float64, error) {
	resp, _, err := a.inner.Respond(ch)
	return resp, math.NaN(), err
}

func TestNaNTimeCannotBypassTimingDecision(t *testing.T) {
	// End to end over a pipe: a prover shipping NaN time must not be
	// accepted (NaN compares false with every bound, so without decode
	// validation `elapsed > δ` would never fire).
	f := newFixture(t, 20)
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		ch, err := ReadChallenge(server)
		if err != nil {
			return
		}
		resp, _, err := nanTimeAgent{f.prover}.Respond(ch)
		if err != nil {
			return
		}
		_ = WriteResponse(server, resp)
		// writeTime refuses NaN, so forge the trailer frame directly.
		var body [8]byte
		binary.LittleEndian.PutUint64(body[:], math.Float64bits(math.NaN()))
		_ = writeFrame(server, frameTime, body[:])
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := RequestContext(ctx, client, f.verifier, DefaultLink())
	if err == nil {
		t.Fatalf("NaN-time session completed: accepted=%v", res.Accepted)
	}
	if !errors.Is(err, ErrBadTime) {
		t.Fatalf("err = %v, want ErrBadTime", err)
	}
}

// --- retry policy ---

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Multiplier: 2, JitterSeed: 7}
	q := p // identical policy must produce the identical schedule
	prev := time.Duration(0)
	for n := 1; n <= 6; n++ {
		d := p.Backoff(n)
		if d != q.Backoff(n) {
			t.Fatalf("backoff(%d) not deterministic", n)
		}
		base := float64(10*time.Millisecond) * math.Pow(2, float64(n-1))
		if base > float64(200*time.Millisecond) {
			base = float64(200 * time.Millisecond)
		}
		if float64(d) < base || float64(d) > base*1.5 {
			t.Errorf("backoff(%d) = %v outside [%v, %v]", n, d, time.Duration(base), time.Duration(base*1.5))
		}
		if n <= 4 && d <= prev {
			t.Errorf("backoff(%d) = %v not growing (prev %v)", n, d, prev)
		}
		prev = d
	}
	if got := (RetryPolicy{JitterSeed: 1}).Backoff(3); got != 0 {
		t.Errorf("zero BaseDelay should not sleep, got %v", got)
	}
	if got := (RetryPolicy{BaseDelay: time.Second, JitterSeed: 9}).Backoff(0); got != 0 {
		t.Errorf("attempt 0 has no backoff, got %v", got)
	}
}

func TestRetryDoSemantics(t *testing.T) {
	var slept []time.Duration
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2, JitterSeed: 3,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}

	t.Run("transport retried to budget", func(t *testing.T) {
		slept = nil
		calls := 0
		started, exhausted, backoffs := tel.RetryAttempts.Value(), tel.RetryExhausted.Value(), tel.Backoff.Count()
		attempts, err := p.Do(func(int) error { calls++; return Transport(ErrLinkDrop) })
		if attempts != 3 || calls != 3 {
			t.Fatalf("attempts = %d, calls = %d, want 3", attempts, calls)
		}
		if !errors.Is(err, ErrLinkDrop) || !IsTransport(err) {
			t.Fatalf("terminal err = %v", err)
		}
		if len(slept) != 2 {
			t.Fatalf("slept %d times, want 2", len(slept))
		}
		if got := tel.RetryAttempts.Value() - started; got != 3 {
			t.Fatalf("retry_attempts_total delta = %d, want 3", got)
		}
		if got := tel.RetryExhausted.Value() - exhausted; got != 1 {
			t.Fatalf("retry_exhausted_total delta = %d, want 1", got)
		}
		if got := tel.Backoff.Count() - backoffs; got != 2 {
			t.Fatalf("attest_backoff_seconds observations = %d, want 2", got)
		}
	})
	t.Run("non-transport not retried", func(t *testing.T) {
		calls := 0
		exhausted := tel.RetryExhausted.Value()
		deviceErr := errors.New("mcu: budget exhausted")
		attempts, err := p.Do(func(int) error { calls++; return deviceErr })
		if attempts != 1 || calls != 1 {
			t.Fatalf("attempts = %d, calls = %d, want 1", attempts, calls)
		}
		if !errors.Is(err, deviceErr) {
			t.Fatalf("err = %v", err)
		}
		if got := tel.RetryExhausted.Value() - exhausted; got != 0 {
			t.Fatalf("terminal error counted as %d exhausted retry loops", got)
		}
	})
	t.Run("success stops", func(t *testing.T) {
		calls := 0
		attempts, err := p.Do(func(int) error {
			calls++
			if calls < 2 {
				return Transport(ErrLinkTimeout)
			}
			return nil
		})
		if attempts != 2 || err != nil {
			t.Fatalf("attempts = %d, err = %v", attempts, err)
		}
	})
}

func TestIsTransportClassification(t *testing.T) {
	transport := []error{
		ErrBadMagic, ErrBadVersion, ErrFrameType, ErrChecksum,
		ErrFrameTooLarge, ErrBadTime, ErrLinkDrop, ErrLinkTimeout,
		ErrStaleFrame, io.EOF, io.ErrUnexpectedEOF, io.ErrClosedPipe,
		net.ErrClosed, context.DeadlineExceeded,
		Transport(errors.New("custom channel fault")),
		fmt.Errorf("wrapped: %w", ErrChecksum),
	}
	for _, err := range transport {
		if !IsTransport(err) {
			t.Errorf("IsTransport(%v) = false, want true", err)
		}
	}
	notTransport := []error{
		nil,
		errors.New("mcu: illegal instruction"),
		context.Canceled, // a user abort must not burn retry budget
	}
	for _, err := range notTransport {
		if IsTransport(err) {
			t.Errorf("IsTransport(%v) = true, want false", err)
		}
	}
}

// --- deterministic fault injection ---

func TestFaultScheduleDeterministic(t *testing.T) {
	plan := FaultPlan{Drop: 0.3, Corrupt: 0.2, Duplicate: 0.1}
	run := func() []int {
		var sink bytes.Buffer
		fc := NewFaultyConn(&sink, plan, 1234)
		for i := 0; i < 200; i++ {
			if _, err := fc.Write([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
				t.Fatal(err)
			}
		}
		counts := fc.Counts()
		return []int{counts[FaultDrop], counts[FaultCorrupt], counts[FaultDuplicate]}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge: %v vs %v", a, b)
		}
	}
	if a[0] == 0 || a[1] == 0 || a[2] == 0 {
		t.Fatalf("expected every configured class to fire over 200 frames: %v", a)
	}
}

func TestFaultBudgetStopsInjection(t *testing.T) {
	var sink bytes.Buffer
	fc := NewFaultyConn(&sink, FaultPlan{Drop: 1, MaxFaults: 2}, 9)
	for i := 0; i < 5; i++ {
		_, _ = fc.Write([]byte{0xAA})
	}
	if fc.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", fc.Injected())
	}
	if sink.Len() != 3 { // 5 writes, first 2 dropped
		t.Fatalf("sink has %d bytes, want 3", sink.Len())
	}
}

// TestFaultyLinkClassification checks that every injectable fault class
// surfaces as a *transport* error of the documented kind — never as a
// verdict — and that one retry recovers from a single transient fault.
func TestFaultyLinkClassification(t *testing.T) {
	f := newFixture(t, 21)
	cases := []struct {
		class FaultClass
		want  error
	}{
		{FaultDrop, ErrLinkDrop},
		{FaultCorrupt, ErrChecksum},
		{FaultTruncate, io.ErrUnexpectedEOF},
		{FaultDelay, ErrLinkTimeout},
		{FaultDuplicate, ErrStaleFrame},
	}
	for _, tc := range cases {
		t.Run(tc.class.String(), func(t *testing.T) {
			link := NewFaultyLink(f.prover, PlanFor(tc.class, 0.25, 1), 77)
			// One-shot: the fault must surface as the documented
			// transport error.
			_, err := RunSession(f.verifier, link, DefaultLink())
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !IsTransport(err) {
				t.Fatalf("%v not classified as transport", err)
			}
			// The budget is spent (MaxFaults 1): a retry must recover.
			link2 := NewFaultyLink(f.prover, PlanFor(tc.class, 0.25, 1), 78)
			res, attempts, err := RunSessionRetry(context.Background(), f.verifier, link2, DefaultLink(), RetryPolicy{MaxAttempts: 3})
			if err != nil {
				t.Fatalf("retry did not recover: %v", err)
			}
			if !res.Accepted {
				t.Fatalf("recovered session rejected: %s", res.Reason)
			}
			if attempts != 2 {
				t.Errorf("attempts = %d, want 2 (one fault, one recovery)", attempts)
			}
		})
	}
}

// TestRejectionNeverRetried is the security property at the heart of the
// retry design: a completed-and-rejected session is final. Retrying it
// would hand a forger fresh chances to get lucky.
func TestRejectionNeverRetried(t *testing.T) {
	f := newFixture(t, 22)
	for i := 0; i < 50; i++ {
		f.prover.Image.Mem[f.image.Layout.PayloadAddr+i] ^= 0x1
	}
	res, attempts, err := RunSessionRetry(context.Background(), f.verifier, f.prover, DefaultLink(), RetryPolicy{MaxAttempts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("tampered prover accepted")
	}
	if attempts != 1 {
		t.Fatalf("rejected verdict was retried: %d attempts", attempts)
	}
}

// --- TCP robustness under injected faults ---

// errCollector gathers server-side faults.
type errCollector struct {
	mu   sync.Mutex
	errs []error
}

func (c *errCollector) add(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errs = append(c.errs, err)
}

func (c *errCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.errs)
}

// startServer runs a Server for the fixture's prover and tears it down with
// the test.
func startServer(t *testing.T, agent ProverAgent, timeout time.Duration) (net.Addr, *errCollector, *Server) {
	t.Helper()
	ec := &errCollector{}
	srv := &Server{Agent: agent, Timeout: timeout, OnError: ec.add}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, ec, srv
}

// TestTCPFaultRecovery drives a full cross-process attestation through
// each injected fault class and checks the retry loop recovers onto a
// clean connection.
func TestTCPFaultRecovery(t *testing.T) {
	f := newFixture(t, 23)
	addr, _, _ := startServer(t, f.prover, 2*time.Second)
	cases := []struct {
		class       FaultClass
		wantRetries bool // duplicate within one session is benign
	}{
		{FaultDrop, true},
		{FaultCorrupt, true},
		{FaultTruncate, true},
		{FaultDelay, true},
		{FaultDuplicate, false},
	}
	for _, tc := range cases {
		t.Run(tc.class.String(), func(t *testing.T) {
			// The injected delay must exceed the attempt deadline, so a
			// delayed frame reads as a timed-out attempt.
			inj := NewFaultInjector(PlanFor(tc.class, 0.6, 1), 99)
			dial := func() (net.Conn, error) {
				c, err := net.Dial("tcp", addr.String())
				if err != nil {
					return nil, err
				}
				return inj.Wrap(c), nil
			}
			policy := RetryPolicy{MaxAttempts: 4, AttemptTimeout: 300 * time.Millisecond}
			res, attempts, err := RequestWithRetry(context.Background(), dial, f.verifier, DefaultLink(), policy)
			if err != nil {
				t.Fatalf("no recovery from %v: %v", tc.class, err)
			}
			if !res.Accepted {
				t.Fatalf("recovered session rejected: %s", res.Reason)
			}
			if inj.Injected() != 1 {
				t.Fatalf("injected = %d, want exactly 1", inj.Injected())
			}
			if tc.wantRetries && attempts < 2 {
				t.Errorf("fault %v consumed no retry (attempts=%d)", tc.class, attempts)
			}
			if !tc.wantRetries && attempts != 1 {
				t.Errorf("benign duplicate should not retry (attempts=%d)", attempts)
			}
		})
	}
}

// TestTCPJitterInflatesRTT: over the real transport the timing decision is
// modelled, not wall-clock, so a jitter fault's sleep alone cannot trip the
// time bound — the injected latency must be folded into the modelled
// elapsed. A jitter above δ yields a completed-but-rejected session (a
// verdict, so no retry is consumed); a jitter far below δ stays accepted.
func TestTCPJitterInflatesRTT(t *testing.T) {
	f := newFixture(t, 26)
	addr, _, _ := startServer(t, f.prover, 2*time.Second)
	run := func(t *testing.T, jitterSecs float64) (Result, int) {
		t.Helper()
		inj := NewFaultInjector(FaultPlan{Jitter: 1, JitterSeconds: jitterSecs, MaxFaults: 1}, 42)
		dial := func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr.String())
			if err != nil {
				return nil, err
			}
			return inj.Wrap(c), nil
		}
		policy := RetryPolicy{MaxAttempts: 4, AttemptTimeout: 2 * time.Second}
		res, attempts, err := RequestWithRetry(context.Background(), dial, f.verifier, DefaultLink(), policy)
		if err != nil {
			t.Fatalf("jittered session errored: %v", err)
		}
		if inj.Injected() != 1 {
			t.Fatalf("injected = %d, want exactly 1", inj.Injected())
		}
		return res, attempts
	}
	t.Run("above-delta-rejected", func(t *testing.T) {
		res, attempts := run(t, 2*f.verifier.Delta())
		if res.Accepted {
			t.Fatalf("jitter of 2δ accepted (elapsed %.4gs, δ %.4gs)", res.Elapsed, res.Delta)
		}
		if !strings.Contains(res.Reason, "time bound") {
			t.Fatalf("reason = %q, want time bound", res.Reason)
		}
		if attempts != 1 {
			t.Fatalf("rejected verdict consumed retries (attempts=%d)", attempts)
		}
	})
	t.Run("below-delta-accepted", func(t *testing.T) {
		res, _ := run(t, f.verifier.Delta()/100)
		if !res.Accepted {
			t.Fatalf("tiny jitter rejected: %s", res.Reason)
		}
	})
}

// TestTCPDuplicateDesyncClassified shows the harmful face of duplication:
// the stale copy desyncs the *next* session on the same stream, and that
// desync is classified as a transport fault (ErrStaleFrame) — not passed
// to the verifier as a failed verdict.
func TestTCPDuplicateDesyncClassified(t *testing.T) {
	f := newFixture(t, 24)
	addr, _, _ := startServer(t, f.prover, 2*time.Second)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := NewFaultyConn(conn, PlanFor(FaultDuplicate, 0, 1), 5)
	res, err := RequestContext(context.Background(), fc, f.verifier, DefaultLink())
	if err != nil || !res.Accepted {
		t.Fatalf("duplicated session should still complete: %v %+v", err, res)
	}
	// The duplicated challenge produced a second response that is still
	// in the stream; the next session must detect it as stale transport
	// state, not as a prover rejection.
	_, err = RequestContext(context.Background(), fc, f.verifier, DefaultLink())
	if !errors.Is(err, ErrStaleFrame) {
		t.Fatalf("err = %v, want ErrStaleFrame", err)
	}
	if !IsTransport(err) {
		t.Fatal("stale frame not classified as transport")
	}
	// A redial recovers.
	fresh, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if res, err := RequestContext(context.Background(), fresh, f.verifier, DefaultLink()); err != nil || !res.Accepted {
		t.Fatalf("fresh connection should recover: %v %+v", err, res)
	}
}

// TestTCPRejectedVerdictNotRetried: the no-amplification property over the
// real transport — dials are counted, so a retry would be visible.
func TestTCPRejectedVerdictNotRetried(t *testing.T) {
	f := newFixture(t, 25)
	for i := 0; i < 50; i++ {
		f.prover.Image.Mem[f.image.Layout.PayloadAddr+i] ^= 0x1
	}
	addr, _, _ := startServer(t, f.prover, 2*time.Second)
	dials := 0
	dial := func() (net.Conn, error) {
		dials++
		return net.Dial("tcp", addr.String())
	}
	policy := RetryPolicy{MaxAttempts: 5, AttemptTimeout: 2 * time.Second}
	res, attempts, err := RequestWithRetry(context.Background(), dial, f.verifier, DefaultLink(), policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("tampered prover accepted over TCP")
	}
	if attempts != 1 || dials != 1 {
		t.Fatalf("rejection retried: attempts=%d dials=%d, want 1/1", attempts, dials)
	}
}

// --- server lifecycle ---

func TestServerSurfacesProtocolErrors(t *testing.T) {
	f := newFixture(t, 26)
	addr, ec, _ := startServer(t, f.prover, time.Second)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	// Garbage that fails the magic check.
	garbage := bytes.Repeat([]byte{0xFF}, headerSize)
	if _, err := conn.Write(garbage); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for ec.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ec.count() == 0 {
		t.Fatal("server swallowed the protocol error")
	}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if !errors.Is(ec.errs[0], ErrBadMagic) {
		t.Errorf("surfaced err = %v, want ErrBadMagic", ec.errs[0])
	}
}

func TestServerCloseIsDeterministic(t *testing.T) {
	f := newFixture(t, 27)
	ec := &errCollector{}
	srv := &Server{Agent: f.prover, Timeout: time.Minute, OnError: ec.add}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// An in-flight connection parked mid-exchange must not block Close.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if res, err := RequestContext(context.Background(), conn, f.verifier, DefaultLink()); err != nil || !res.Accepted {
		t.Fatalf("warmup session failed: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not drain in-flight connections")
	}
	if _, err := net.DialTimeout("tcp", addr.String(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after Close")
	}
	if ec.count() != 0 {
		ec.mu.Lock()
		defer ec.mu.Unlock()
		t.Errorf("shutdown reported spurious errors: %v", ec.errs)
	}
	// Close is idempotent.
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestServeContextCancel(t *testing.T) {
	f := newFixture(t, 28)
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeContext(ctx, server, f.prover) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ServeContext ignored cancellation")
	}
}

func TestRequestContextDeadline(t *testing.T) {
	f := newFixture(t, 29)
	// A black-hole server: accepts and never answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = RequestContext(ctx, conn, f.verifier, DefaultLink())
	if err == nil {
		t.Fatal("request against black hole succeeded")
	}
	if !IsTransport(err) {
		t.Fatalf("deadline expiry not transport-classified: %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("deadline ignored: waited %v", waited)
	}
}

// --- resilient fleet sweep ---

// fleetSpec builds a fleet with a controlled mixture of node conditions.
type fleetSpec struct {
	transientFaulty  map[int]bool // lossy link, recovers within the retry budget
	persistentFaulty map[int]bool // dead link, never recovers
	tampered         map[int]bool // firmware modified: must be REJECTED, not unreachable
}

func buildResilientFleet(t *testing.T, nodes int, spec fleetSpec) *Fleet {
	t.Helper()
	design := core.MustNewDesign(core.DefaultConfig())
	params := swatt.Params{MemWords: 1024, Chunks: 4, BlocksPerChunk: 2, PRG: swatt.PRGMix32}
	image, err := swatt.BuildImage(params, []uint32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	fleet := NewFleet()
	link := DefaultLink()
	for id := 0; id < nodes; id++ {
		dev := core.MustNewDevice(design, rng.New(900), id)
		prover, v, err := NewPair(dev, image)
		if err != nil {
			t.Fatal(err)
		}
		v.AllowNetwork(link)
		if spec.tampered[id] {
			for i := 0; i < 400; i++ {
				prover.Image.Mem[image.Layout.PayloadAddr+i] ^= 0xAA
			}
		}
		var agent ProverAgent = prover
		switch {
		case spec.transientFaulty[id]:
			// Two faults, budget of three attempts: the third wins.
			agent = NewFaultyLink(prover, FaultPlan{Drop: 1, MaxFaults: 2}, uint64(1000+id))
		case spec.persistentFaulty[id]:
			agent = NewFaultyLink(prover, FaultPlan{Drop: 1}, uint64(2000+id))
		}
		if err := fleet.Enroll(id, v, agent, link); err != nil {
			t.Fatal(err)
		}
	}
	return fleet
}

func idSet(ids ...int) map[int]bool {
	m := make(map[int]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func sameIDs(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestFleetResilientSweep50 is the acceptance scenario: ≥50 nodes, 20%
// faulty links (half transient, half dead), plus two genuinely compromised
// nodes; the sweep runs with bounded concurrency, recovers the transient
// nodes within their retry budgets, reports compromised and unreachable
// separately, and quarantines the repeat offenders.
func TestFleetResilientSweep50(t *testing.T) {
	const nodes = 50
	transient := []int{3, 11, 19, 27, 35}
	persistent := []int{7, 15, 23, 31, 47}
	tampered := []int{12, 40}
	fleet := buildResilientFleet(t, nodes, fleetSpec{
		transientFaulty:  idSet(transient...),
		persistentFaulty: idSet(persistent...),
		tampered:         idSet(tampered...),
	})
	policy := RetryPolicy{MaxAttempts: 3}

	report := fleet.Sweep(context.Background(), policy)
	if len(report.Results) != nodes {
		t.Fatalf("%d results, want %d", len(report.Results), nodes)
	}
	for i, r := range report.Results {
		if r.NodeID != i {
			t.Fatalf("result %d has node id %d (order lost under concurrency)", i, r.NodeID)
		}
	}
	if !sameIDs(report.Compromised, tampered) {
		t.Errorf("compromised = %v, want %v", report.Compromised, tampered)
	}
	if !sameIDs(report.Unreachable, persistent) {
		t.Errorf("unreachable = %v, want %v", report.Unreachable, persistent)
	}
	if len(report.Healthy) != nodes-len(persistent)-len(tampered) {
		t.Errorf("healthy = %d, want %d", len(report.Healthy), nodes-len(persistent)-len(tampered))
	}
	for _, id := range transient {
		r := report.Results[id]
		if !r.Healthy() {
			t.Errorf("transient node %d did not recover: %v", id, r.Err)
		}
		if r.Attempts != 3 {
			t.Errorf("transient node %d used %d attempts, want 3", id, r.Attempts)
		}
	}
	// The compromised/unreachable split must be disjoint and complete.
	if bad := report.Compromised; !sameIDs(bad, tampered) {
		t.Errorf("Compromised = %v, want %v", bad, tampered)
	}
	if un := report.Unreachable; !sameIDs(un, persistent) {
		t.Errorf("Unreachable = %v, want %v", un, persistent)
	}

	// Repeat offenders trip the breaker after DefaultQuarantineThreshold sweeps.
	fleet.Sweep(context.Background(), policy)
	report3 := fleet.Sweep(context.Background(), policy)
	if !sameIDs(fleet.Quarantined(), persistent) {
		t.Fatalf("quarantined = %v, want %v", fleet.Quarantined(), persistent)
	}
	if !sameIDs(report3.Unreachable, persistent) {
		t.Errorf("sweep 3 unreachable = %v, want %v", report3.Unreachable, persistent)
	}

	// Sweep 4: quarantined nodes get a single half-open probe each — which
	// fails against a dead link — so they are reported as quarantined and
	// consume no retry budget.
	report4 := fleet.Sweep(context.Background(), policy)
	if !sameIDs(report4.Quarantined, persistent) {
		t.Errorf("sweep 4 quarantined = %v, want %v", report4.Quarantined, persistent)
	}
	for _, id := range persistent {
		r := report4.Results[id]
		if !errors.Is(r.Err, ErrQuarantined) {
			t.Errorf("node %d err = %v, want ErrQuarantined", id, r.Err)
		}
		if r.Attempts != 0 {
			t.Errorf("quarantined node %d burned %d attempts", id, r.Attempts)
		}
	}
	// Tampered nodes must still be flagged every sweep — rejection is a
	// verdict, not a reachability problem, so they never enter quarantine.
	if !sameIDs(report4.Compromised, tampered) {
		t.Errorf("sweep 4 compromised = %v, want %v", report4.Compromised, tampered)
	}

	// An operator reinstates a node; it is attested (and found
	// unreachable) again instead of being skipped.
	fleet.Reinstate(persistent[0])
	report5 := fleet.Sweep(context.Background(), policy)
	r := report5.Results[persistent[0]]
	if r.Attempts != 3 || !r.Unreachable() {
		t.Errorf("reinstated node: attempts=%d unreachable=%v, want 3/true", r.Attempts, r.Unreachable())
	}
}

// TestFleetQuarantineRecovery: a node whose link heals leaves quarantine
// through a successful half-open probe.
func TestFleetQuarantineRecovery(t *testing.T) {
	fleet := buildResilientFleet(t, 2, fleetSpec{})
	// Replace node 1's agent with a link that is dead for exactly the
	// faults consumed by three 1-attempt sweeps, then heals.
	design := core.MustNewDesign(core.DefaultConfig())
	params := swatt.Params{MemWords: 1024, Chunks: 4, BlocksPerChunk: 2, PRG: swatt.PRGMix32}
	image, err := swatt.BuildImage(params, []uint32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	dev := core.MustNewDevice(design, rng.New(901), 5)
	prover, v, err := NewPair(dev, image)
	if err != nil {
		t.Fatal(err)
	}
	healing := NewFaultyLink(prover, FaultPlan{Drop: 1, MaxFaults: 3}, 55)
	if err := fleet.Enroll(5, v, healing, DefaultLink()); err != nil {
		t.Fatal(err)
	}
	policy := RetryPolicy{MaxAttempts: 1}
	for i := 0; i < 3; i++ {
		fleet.Sweep(context.Background(), policy)
	}
	if !sameIDs(fleet.Quarantined(), []int{5}) {
		t.Fatalf("quarantined = %v, want [5]", fleet.Quarantined())
	}
	// The link has healed (3 faults consumed); the next sweep's probe
	// succeeds and lifts the quarantine.
	report := fleet.Sweep(context.Background(), policy)
	if !report.Results[2].Healthy() { // index 2 = node id 5 (after 0, 1)
		t.Fatalf("healed node probe failed: %+v", report.Results[2])
	}
	if len(fleet.Quarantined()) != 0 {
		t.Fatalf("quarantine not lifted: %v", fleet.Quarantined())
	}
	if !sameIDs(report.Healthy, []int{0, 1, 5}) {
		t.Errorf("healthy = %v, want [0 1 5]", report.Healthy)
	}
}

func TestSweepReportString(t *testing.T) {
	fleet := buildResilientFleet(t, 2, fleetSpec{})
	report := fleet.Sweep(context.Background(), RetryPolicy{MaxAttempts: 3})
	s := report.String()
	if s == "" || len(report.Healthy) != 2 {
		t.Fatalf("report = %q healthy=%v", s, report.Healthy)
	}
}
