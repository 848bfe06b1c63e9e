package attest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"pufatt/internal/rng"
	"pufatt/internal/telemetry"
)

// This file implements the verifier-side fault-tolerance policy: the
// classification of failures into *transport faults* (the channel mangled,
// lost, or delayed a frame — worth retrying) versus *verdicts* (the
// verifier decided; final), and an exponential-backoff retry loop over that
// classification.
//
// The distinction is security-critical, not cosmetic. A rejected
// attestation MUST stay rejected: if the verifier re-challenged on every
// rejection, an adversary with forgery probability ε per session would get
// ε·n odds over n automatic retries for free. Transport faults carry no
// such amplification — each retry is a fresh session with a fresh
// challenge, and a lost frame says nothing about the prover's memory state
// — so only they are eligible.

// Transport-fault sentinels produced by this package's own channel
// machinery (the frame codec has its own set: ErrBadMagic, ErrBadVersion,
// ErrFrameType, ErrChecksum, ErrFrameTooLarge, ErrBadTime).
var (
	// ErrLinkDrop reports a frame that the channel swallowed entirely.
	ErrLinkDrop = errors.New("attest: frame dropped by link")
	// ErrLinkTimeout reports a frame that arrived too late to count (or
	// never arrived within the deadline).
	ErrLinkTimeout = errors.New("attest: link timeout")
	// ErrStaleFrame reports a well-formed frame from a previous session —
	// the signature of a duplicated or replayed frame still sitting in the
	// stream. It is a desync of the channel, not a prover verdict.
	ErrStaleFrame = errors.New("attest: stale frame from earlier session")
	// ErrQuarantined reports a node the fleet has stopped attesting after
	// repeated transport failures.
	ErrQuarantined = errors.New("attest: node quarantined")
	// ErrCancelled reports an attestation abandoned because the caller's
	// context ended. It is terminal, not a transport fault: retrying
	// against a dead context can never succeed, so it must not consume the
	// retry budget.
	ErrCancelled = errors.New("attest: cancelled by caller")
)

// TransportError explicitly marks err as a retry-eligible channel fault.
// The fault injectors and custom transports use it to tag errors that
// IsTransport cannot recognise structurally.
type TransportError struct{ Err error }

func (e *TransportError) Error() string { return "attest: transport: " + e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// Transport wraps err as a transport-class fault (nil stays nil).
func Transport(err error) error {
	if err == nil {
		return nil
	}
	return &TransportError{Err: err}
}

// IsTransport reports whether err is a transport-class fault: a failure of
// the channel rather than of the prover. Only transport faults may be
// retried. Note that a *rejection* is not an error at all — Verify returns
// it inside Result — so a cryptographic verdict can never be classified
// here by construction.
func IsTransport(err error) bool {
	if err == nil {
		return false
	}
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	// Frame-level faults: the channel delivered bytes that do not form a
	// valid frame of the expected kind.
	for _, sentinel := range []error{
		ErrBadMagic, ErrBadVersion, ErrFrameType, ErrChecksum,
		ErrFrameTooLarge, ErrBadTime, ErrTraceExt, ErrLinkDrop,
		ErrLinkTimeout, ErrStaleFrame,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	// Stream-level faults: truncation, resets, closed sockets, deadlines.
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr)
}

// RetryPolicy configures the transport-fault retry loop: attempt budget and
// exponential backoff with deterministic, seeded jitter (reproducibility is
// a design requirement of the whole simulation stack, so even retry timing
// derives from an explicit seed).
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget (first try included). Values
	// below 1 behave as 1: a policy's zero value performs a single attempt.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; attempt n waits
	// BaseDelay·Multiplier^(n-1), capped at MaxDelay. A zero BaseDelay
	// disables sleeping entirely — the mode the simulated-clock paths use.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 = uncapped).
	MaxDelay time.Duration
	// Multiplier is the backoff growth factor (values below 1 behave as 2).
	Multiplier float64
	// JitterSeed seeds the deterministic jitter stream. Jitter adds up to
	// 50% of the computed delay, decorrelating a fleet of verifiers that
	// all saw the same outage.
	JitterSeed uint64
	// AttemptTimeout bounds each individual attempt (0 = no per-attempt
	// bound). The retry loop derives a per-attempt context from it, so a
	// dropped frame costs one timeout, not the whole budget's worth of
	// waiting; the caller's own deadline ends the loop instead.
	AttemptTimeout time.Duration
	// Sleep is the clock used between attempts; nil means time.Sleep.
	// Tests and simulated deployments inject a no-op or recorder.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy returns the policy used by the TCP verifier paths:
// 4 attempts, 50 ms base, ×2 growth, 1 s cap, jittered.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    time.Second,
		Multiplier:  2,
		JitterSeed:  1,
	}
}

// attempts returns the effective attempt budget.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the deterministic wait before retry attempt n (n ≥ 1 is
// the retry index: Backoff(1) precedes the second attempt). The same
// policy always yields the same schedule.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	if p.BaseDelay <= 0 || attempt < 1 {
		return 0
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	// Seeded jitter: up to +50%, derived from (seed, attempt) so the
	// schedule is a pure function of the policy.
	u := rng.New(p.JitterSeed).SubN("backoff", attempt).Float64()
	return time.Duration(d * (1 + 0.5*u))
}

// sleep waits out the backoff for retry attempt n using the policy clock,
// journalling the computed delay against the given telemetry bundle.
func (p RetryPolicy) sleep(t *Telemetry, device string, attempt int) {
	d := p.Backoff(attempt)
	if d <= 0 {
		return
	}
	// The delay is observed when computed, not measured around the sleep,
	// so the backoff histogram is exact even under an injected no-op clock.
	t.Backoff.Observe(d.Seconds())
	t.journal(telemetry.EventBackoff, 0, 0, device, d.String())
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Do runs op until it returns nil, returns a non-transport error, or the
// attempt budget is exhausted; it reports the error of the last attempt and
// the number of attempts made. op receives the 0-based attempt index.
func (p RetryPolicy) Do(op func(attempt int) error) (attempts int, err error) {
	return p.do(tel, "", op)
}

// do is Do against an explicit telemetry bundle: attempts and backoffs are
// journalled (with the device name when known) as well as counted.
func (p RetryPolicy) do(t *Telemetry, device string, op func(attempt int) error) (attempts int, err error) {
	budget := p.attempts()
	for i := 0; i < budget; i++ {
		if i > 0 {
			p.sleep(t, device, i)
			t.journal(telemetry.EventRetry, 0, 0, device,
				fmt.Sprintf("attempt=%d cause=%q", i+1, err))
		}
		t.RetryAttempts.Inc()
		err = op(i)
		attempts = i + 1
		if err == nil || !IsTransport(err) {
			return attempts, err
		}
	}
	t.RetryExhausted.Inc()
	return attempts, fmt.Errorf("attest: %d attempts exhausted: %w", attempts, err)
}

// RunSessionRetry performs attestation sessions over the simulated link
// until one completes, the transport budget is exhausted, or ctx ends. A
// completed session's verdict — accepted or rejected — is final and never
// retried; only transport faults (from a FaultyLink or a custom agent
// transport) consume the budget.
func RunSessionRetry(ctx context.Context, v *Verifier, agent ProverAgent, link Link, policy RetryPolicy) (Result, int, error) {
	return tel.RunSessionRetry(ctx, v, agent, link, policy)
}

// RunSessionRetry is the retry loop against this explicit telemetry
// bundle — the entry point for callers (the cluster tier, tests) that
// record into their own registry rather than the package default. It
// honours a trace parent installed with WithTraceParent.
func (t *Telemetry) RunSessionRetry(ctx context.Context, v *Verifier, agent ProverAgent, link Link, policy RetryPolicy) (Result, int, error) {
	return t.retry(ctx, v, link, policy, func(context.Context) (exchange, func(), error) {
		return inMemory(agent), func() {}, nil
	})
}

// retry is the retry loop of every transport, and its failure boundary.
// Each attempt opens a fresh channel (open receives the attempt's context,
// bounded by policy.AttemptTimeout when set) and runs one session over it,
// adopted into the trace parent carried by ctx. Once ctx has ended the
// loop stops with ErrCancelled — no further attempt, no backoff, no
// transport verdict — while an expired per-attempt timeout is an
// ErrLinkTimeout transport fault and is retried. A terminal transport
// error feeds the device health registry (an availability datum) and —
// like a rejected verdict — triggers a flight-recorder dump carrying the
// failing session's trace ID.
func (t *Telemetry) retry(ctx context.Context, v *Verifier, link Link, policy RetryPolicy, open func(context.Context) (exchange, func(), error)) (Result, int, error) {
	var (
		res   Result
		trace telemetry.TraceID
	)
	parent, _ := TraceParent(ctx)
	attempts, err := policy.do(t, v.Device, func(attempt int) error {
		if cerr := ended(ctx); cerr != nil {
			return cancelled(cerr)
		}
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if policy.AttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, policy.AttemptTimeout)
		}
		defer cancel()
		x, release, err := open(attemptCtx)
		if err == nil {
			defer release()
			res, trace, err = t.session(parent, v, link, x, attempt)
		}
		switch {
		case err == nil:
			return nil
		case ended(ctx) != nil:
			return cancelled(ended(ctx))
		case ended(attemptCtx) != nil:
			return Transport(fmt.Errorf("%w: attempt timed out after %v", ErrLinkTimeout, policy.AttemptTimeout))
		}
		return err
	})
	switch {
	case err != nil && IsTransport(err):
		t.Health.Observe(v.Device, telemetry.SessionObservation{
			Outcome: telemetry.OutcomeTransport, Retries: attempts - 1,
		})
		if _, derr := t.flightDump("transport", trace); derr != nil {
			t.journal(telemetry.EventVerifyOutcome, trace, 0, v.Device, "flight dump failed: "+derr.Error())
		}
	case err == nil && !res.Accepted:
		if _, derr := t.flightDump("rejected", trace); derr != nil {
			t.journal(telemetry.EventVerifyOutcome, trace, 0, v.Device, "flight dump failed: "+derr.Error())
		}
	}
	return res, attempts, err
}

// ended reports why ctx is over, or nil. A deadline that has passed counts
// even before the context's own timer marks it done: the conn deadline
// guardConn derived from it can fail I/O first.
func ended(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// cancelled reports an attempt abandoned because the caller's context
// ended. The cause is formatted, not wrapped: wrapping would let
// IsTransport match context.DeadlineExceeded and retry a dead context.
func cancelled(cause error) error {
	return fmt.Errorf("%w: %v", ErrCancelled, cause)
}
