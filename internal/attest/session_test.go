package attest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pufatt/internal/core"
	"pufatt/internal/telemetry"
)

// Both transports run the same session body; these tests pin that the
// simulated link and a loopback TCP prover are interchangeable from the
// verifier's point of view.

// forgedTagAgent answers correctly but flips one bit of the checksum tag.
type forgedTagAgent struct{ inner ProverAgent }

func (a forgedTagAgent) Respond(ch Challenge) (Response, float64, error) {
	resp, compute, err := a.inner.Respond(ch)
	resp.Tag[0] ^= 1
	return resp, compute, err
}

// transportRun is one attestation through a named transport: it runs a
// single-attempt retried session and reports what the caller sees.
type transportRun struct {
	name string
	span string
	run  func(t *testing.T, ctx context.Context, v *Verifier, agent ProverAgent) (Result, int, error)
}

func transports() []transportRun {
	return []transportRun{
		{name: "memory", span: "attest.session", run: func(t *testing.T, ctx context.Context, v *Verifier, agent ProverAgent) (Result, int, error) {
			return RunSessionRetry(ctx, v, agent, DefaultLink(), RetryPolicy{})
		}},
		{name: "tcp", span: "attest.session.tcp", run: func(t *testing.T, ctx context.Context, v *Verifier, agent ProverAgent) (Result, int, error) {
			addr, ec, _ := startServer(t, agent, 0)
			dial := func() (net.Conn, error) { return net.Dial("tcp", addr.String()) }
			res, attempts, err := RequestWithRetry(ctx, dial, v, DefaultLink(), RetryPolicy{})
			if n := ec.count(); n != 0 {
				t.Errorf("prover reported %d serve errors", n)
			}
			return res, attempts, err
		}},
	}
}

// sessionSpan finds the most recent session span recorded for device.
func sessionSpan(name, device string) *telemetry.Span {
	var found *telemetry.Span
	for _, sp := range tel.Tracer.Recent() {
		if sp.Name() == name && sp.Attr("device") == device {
			found = sp
		}
	}
	return found
}

// journalKinds lists the journal event kinds recorded for device, oldest
// first.
func journalKinds(device string) []string {
	var kinds []string
	for _, e := range tel.Journal.Recent() {
		if e.Device == device {
			kinds = append(kinds, e.Kind.String())
		}
	}
	return kinds
}

// parityOutcome is everything a session leaves behind that must not depend
// on the transport, with the device name masked out.
type parityOutcome struct {
	Accepted    bool
	Reason      string
	ElapsedBits uint64
	Attempts    int
	Err         string
	Attrs       map[string]string
	Journal     []string
	Health      parityHealth
	InParent    bool
}

// parityHealth is the transport-independent part of a device's health.
type parityHealth struct {
	Status                                  telemetry.DeviceStatus
	Sessions, Accepted, Rejected, Transport uint64
	SeedsClaimed                            uint64
	SeedsRemaining                          int
	BudgetExhausted                         bool
	RTTP50                                  float64
}

// TestTransportParity runs each case with the same fixture seed through
// the in-memory entry point and a loopback Server and requires identical
// verdicts, span attributes, health and journal effects, and trace
// adoption.
func TestTransportParity(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T, f *fixture) ProverAgent
		// want is the verdict reason's prefix, or the error's for a session
		// that never reached a verdict.
		want string
		// parent runs the session under a WithTraceParent context.
		parent bool
	}{
		{name: "accepted", want: "ok", setup: func(t *testing.T, f *fixture) ProverAgent { return f.prover }},
		{name: "tag-forged", want: "attestation response mismatch", setup: func(t *testing.T, f *fixture) ProverAgent {
			return forgedTagAgent{f.prover}
		}},
		{name: "late", want: "time bound exceeded", setup: func(t *testing.T, f *fixture) ProverAgent {
			return &inflatedAgent{inner: f.prover, extra: f.verifier.Delta()}
		}},
		{name: "exhausted", want: `attest: device "DEV" seed budget exhausted`, setup: func(t *testing.T, f *fixture) ProverAgent {
			f.verifier.WithSeedBudget(budgetDB(t, f, 1))
			if _, err := f.verifier.NewSession(); err != nil {
				t.Fatal(err)
			}
			return f.prover
		}},
		{name: "epoch1", want: "ok", setup: func(t *testing.T, f *fixture) ProverAgent {
			f.dev.SetEpoch(1)
			f.verifier.PUFEpoch = 1
			f.verifier.Pipeline = core.MustNewVerifierPipeline(f.dev.Emulator())
			return f.prover
		}},
		{name: "trace-parent", want: "ok", parent: true, setup: func(t *testing.T, f *fixture) ProverAgent { return f.prover }},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var outs []parityOutcome
			for _, tr := range transports() {
				f := newFixture(t, uint64(70+i))
				device := "parity-" + tc.name + "-" + tr.name
				f.verifier.Device = device
				agent := tc.setup(t, f)
				ctx := context.Background()
				var parent telemetry.TraceContext
				if tc.parent {
					psp := tel.Tracer.StartSpan("parity.parent")
					parent = psp.Context()
					ctx = WithTraceParent(ctx, parent)
					defer psp.Finish()
				}
				res, attempts, err := tr.run(t, ctx, f.verifier, agent)
				sp := sessionSpan(tr.span, device)
				if sp == nil {
					t.Fatalf("%s: no %s span for %s", tr.name, tr.span, device)
				}
				mask := func(s string) string { return strings.ReplaceAll(s, device, "DEV") }
				out := parityOutcome{
					Accepted: res.Accepted, Reason: res.Reason, ElapsedBits: math.Float64bits(res.Elapsed),
					Attempts: attempts, Attrs: map[string]string{}, Journal: journalKinds(device),
					InParent: parent.Valid() && sp.TraceID() == parent.Trace && sp.ParentSpanID() == parent.Span,
				}
				if err != nil {
					out.Err = mask(err.Error())
				}
				if got := out.Reason + out.Err; !strings.HasPrefix(got, tc.want) {
					t.Fatalf("%s: outcome %q, want %q", tr.name, got, tc.want)
				}
				for _, k := range []string{"session", "verdict", "elapsed_seconds", "error"} {
					out.Attrs[k] = mask(sp.Attr(k))
				}
				h, _ := tel.Health.Get(device)
				out.Health = parityHealth{h.Status, h.Sessions, h.Accepted, h.Rejected, h.Transport,
					h.SeedsClaimed, h.SeedsRemaining, h.BudgetExhausted, h.RTTP50}
				outs = append(outs, out)
			}
			mem, tcp := outs[0], outs[1]
			if mem.Err == "" && mem.Attrs["elapsed_seconds"] == "" {
				t.Error("session span lacks elapsed_seconds")
			}
			if tc.name == "exhausted" && (!mem.Health.BudgetExhausted ||
				!slices.Contains(mem.Journal, telemetry.EventEpoch.String())) {
				t.Errorf("exhaustion not flagged in device health and journal: %+v", mem)
			}
			if tc.parent && !mem.InParent {
				t.Error("session not adopted into the parent trace")
			}
			// %+v prints maps sorted and NaN as NaN, so equal text is equal
			// outcomes.
			if m, c := fmt.Sprintf("%+v", mem), fmt.Sprintf("%+v", tcp); m != c {
				t.Errorf("transports disagree:\nmemory %s\ntcp    %s", m, c)
			}
		})
	}
}

// TestSessionsHoldEpochGate: a session on either transport waits while an
// epoch cutover holds the gate, and completes once the cutover returns.
func TestSessionsHoldEpochGate(t *testing.T) {
	for i, tr := range transports() {
		t.Run(tr.name, func(t *testing.T) {
			f := newFixture(t, uint64(80+i))
			gate := &EpochGate{}
			f.verifier.Gate = gate
			held, release := make(chan struct{}), make(chan struct{})
			cut := make(chan error, 1)
			go func() {
				cut <- gate.Cutover(func() error {
					close(held)
					<-release
					return nil
				})
			}()
			<-held
			type outcome struct {
				res Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, _, err := tr.run(t, context.Background(), f.verifier, f.prover)
				done <- outcome{res, err}
			}()
			select {
			case <-done:
				close(release)
				t.Fatal("session completed while a cutover held the epoch gate")
			case <-time.After(300 * time.Millisecond):
			}
			close(release)
			if err := <-cut; err != nil {
				t.Fatal(err)
			}
			select {
			case o := <-done:
				if o.err != nil || !o.res.Accepted {
					t.Fatalf("session after cutover: %v / %+v", o.err, o.res)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("session still blocked after the cutover returned")
			}
		})
	}
}

// stallAgent answers nothing until its stall is over, then reports a
// dropped frame — the in-memory analogue of a black-hole peer.
type stallAgent struct{ stall time.Duration }

func (a stallAgent) Respond(Challenge) (Response, float64, error) {
	time.Sleep(a.stall)
	return Response{}, 0, Transport(ErrLinkDrop)
}

// TestCallerDeadlineEndsRetryLoop: once the caller's deadline has passed
// mid-attempt, both transports stop with ErrCancelled after that attempt —
// no backoff, no further attempt, no transport verdict, no flight dump.
// (An expired per-attempt timeout alone stays a retried link timeout;
// TestTCPFaultRecovery's delay class covers that.)
func TestCallerDeadlineEndsRetryLoop(t *testing.T) {
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
	dial := func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }

	prevDir := tel.FlightDir()
	dir := t.TempDir()
	tel.SetFlightDir(dir)
	defer tel.SetFlightDir(prevDir)

	loops := []struct {
		name string
		run  func(ctx context.Context, v *Verifier, p RetryPolicy) (Result, int, error)
	}{
		{"memory", func(ctx context.Context, v *Verifier, p RetryPolicy) (Result, int, error) {
			return RunSessionRetry(ctx, v, stallAgent{200 * time.Millisecond}, DefaultLink(), p)
		}},
		{"tcp", func(ctx context.Context, v *Verifier, p RetryPolicy) (Result, int, error) {
			return RequestWithRetry(ctx, dial, v, DefaultLink(), p)
		}},
	}
	for i, loop := range loops {
		t.Run(loop.name, func(t *testing.T) {
			f := newFixture(t, uint64(85+i))
			f.verifier.Device = "deadline-" + loop.name
			var sleeps atomic.Int32
			policy := DefaultRetryPolicy()
			policy.Sleep = func(time.Duration) { sleeps.Add(1) }
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			_, attempts, err := loop.run(ctx, f.verifier, policy)
			if !errors.Is(err, ErrCancelled) || IsTransport(err) {
				t.Fatalf("err = %v, want a non-transport ErrCancelled", err)
			}
			if attempts != 1 || sleeps.Load() != 0 {
				t.Fatalf("%d attempts, %d backoff sleeps after the caller's deadline; want 1 and 0", attempts, sleeps.Load())
			}
			if h, _ := tel.Health.Get(f.verifier.Device); h.Transport != 0 {
				t.Fatalf("cancelled loop recorded %d transport outcomes", h.Transport)
			}
			if files, _ := os.ReadDir(dir); len(files) != 0 {
				t.Fatalf("cancelled loop wrote flight dumps: %v", files)
			}

		})
	}
}
