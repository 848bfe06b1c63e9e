package attest

import (
	"fmt"
	"strconv"
	"time"

	"pufatt/internal/telemetry"
)

// Link models the prover's constrained communication interface: one-way
// propagation latency plus serialisation at a fixed bit rate. The paper's
// prover-authentication argument (Section 4.2) rests on this link being far
// slower than the CPU↔PUF path, so the model is explicit and shared with
// the oracle-attack analysis.
type Link struct {
	LatencySeconds float64
	BitsPerSecond  float64
}

// DefaultLink models a constrained sensor-node radio: 2 ms propagation,
// 250 kbit/s (802.15.4-class).
func DefaultLink() Link {
	return Link{LatencySeconds: 2e-3, BitsPerSecond: 250e3}
}

// TransferSeconds returns the one-way time for a message of the given size.
func (l Link) TransferSeconds(bits int) float64 {
	if l.BitsPerSecond <= 0 {
		return l.LatencySeconds
	}
	return l.LatencySeconds + float64(bits)/l.BitsPerSecond
}

// String describes the link.
func (l Link) String() string {
	return fmt.Sprintf("%.1fms/%.0fkbit/s", l.LatencySeconds*1e3, l.BitsPerSecond/1e3)
}

// RunSession executes one full attestation round trip on the simulated
// clock: challenge transfer, prover computation, response transfer,
// verification. Each session records a trace — spans for the challenge
// draw, the prover's PUF-entangled checksum, and the verdict, plus
// link/compute segments carrying the modelled durations — into the
// attestation tracer's ring buffer (span taxonomy in DESIGN.md), and every
// protocol step lands in the flight-recorder journal under the session's
// trace ID.
func RunSession(v *Verifier, agent ProverAgent, link Link) (Result, error) {
	res, _, err := tel.session(telemetry.TraceContext{}, v, link, inMemory(agent), 0)
	return res, err
}

// exchange is one transport's half of a session: deliver the challenge
// (tc is the session span's context, for the prover to adopt) and return
// the prover's response, its simulated compute seconds, and any round-trip
// latency the channel injected on top of the link model. span names the
// session span the transport records under.
type exchange struct {
	span string
	step func(ch Challenge, tc telemetry.TraceContext) (resp Response, compute, injected float64, err error)
}

// inMemory is the exchange over the simulated link: the agent call IS the
// challenge send and the response receive.
func inMemory(agent ProverAgent) exchange {
	return exchange{span: "attest.session", step: func(ch Challenge, _ telemetry.TraceContext) (Response, float64, float64, error) {
		resp, compute, err := agent.Respond(ch)
		return resp, compute, 0, err
	}}
}

// secondsToDuration converts a simulated-seconds cost to a time.Duration
// for segment rendering.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// session is the verifier side of one attestation session, whatever the
// transport: it holds the epoch gate, claims the challenge, runs the
// transport's exchange, and applies the verdict rule elapsed =
// link(challenge) + compute + link(response) ≤ δ, recording spans, journal
// events and device health against t. It reports the session's trace ID so
// failure handlers can correlate the journal with the span tree. A valid
// parent makes the session span a member of the caller's trace (the
// cluster tier stitches its route/queue/replication spans around the
// session this way); an invalid one opens a fresh trace. attempt is the
// 0-based retry index, folded into the device health observation.
func (t *Telemetry) session(parent telemetry.TraceContext, v *Verifier, link Link, x exchange, attempt int) (Result, telemetry.TraceID, error) {
	sp := t.Tracer.StartSpanInTrace(x.span, parent)
	defer sp.Finish()
	trace := sp.TraceID()
	device := v.Device
	if device != "" {
		sp.SetAttr("device", device)
	}

	// A gated session holds the epoch gate (shared) from seed claim to
	// verdict: an epoch cutover (exclusive) waits for in-flight sessions
	// and blocks new ones, so no session ever spans a reconfiguration.
	if v.Gate != nil {
		v.Gate.enterSession()
		defer v.Gate.leaveSession()
	}

	spc := sp.Child("challenge")
	ch, err := v.NewSession()
	spc.Finish()
	if err != nil {
		sp.SetAttr("error", err.Error())
		if IsExhausted(err) {
			// The budget ran dry (or its epoch was retired) before a new
			// enrollment is live: a lifecycle condition, not a fault. Flag
			// the device awaiting-reenroll and journal it for the flight
			// recorder; the caller sees the typed ExhaustedError.
			t.Health.ObserveBudgetExhausted(device)
			t.journal(telemetry.EventEpoch, trace, 0, device, "seed budget exhausted; awaiting re-enrollment")
		}
		return Result{}, trace, err
	}
	sp.SetAttr("session", strconv.FormatUint(ch.Session, 10))
	t.journal(telemetry.EventSessionOpen, trace, ch.Session, device, "")
	if v.Seeds != nil {
		remaining := v.BudgetRemaining()
		t.Health.ObserveSeedClaim(device, remaining)
		t.journal(telemetry.EventSeedClaim, trace, ch.Session, device,
			fmt.Sprintf("remaining=%d", remaining))
	}

	// The send and receive events bracket the exchange so journal order
	// matches the wire protocol.
	t.journal(telemetry.EventChallengeSent, trace, ch.Session, device, "")
	spr := sp.Child("puf_eval")
	resp, compute, injected, err := x.step(ch, sp.Context())
	spr.Finish()
	if err != nil {
		sp.SetAttr("error", err.Error())
		return Result{}, trace, err
	}
	spr.SetAttr("compute_seconds", strconv.FormatFloat(compute, 'g', -1, 64))
	t.journal(telemetry.EventChecksumReceived, trace, ch.Session, device,
		fmt.Sprintf("helpers=%d compute=%.4gs", len(resp.Helpers), compute))

	spv := sp.Child("verify")
	up, down := link.TransferSeconds(ch.Bits()), link.TransferSeconds(resp.Bits())
	// An injected channel delay (a jitter fault) delivered the frames
	// intact but late; the timing decision is modelled, so the transport
	// reports those seconds to be folded into the round trip they inflated.
	elapsed := up + compute + down + injected
	res := v.verifyObserved(t, trace, ch, resp, elapsed)
	spv.Finish()

	// Segments: the modelled link and compute costs, laid end to end from
	// the session start, so /debug/traces shows where the round trip went
	// even though no local clock observed these phases.
	base := sp.Start()
	d1 := secondsToDuration(up)
	d2 := secondsToDuration(compute)
	sp.Segment("link.challenge", base, d1)
	sp.Segment("compute", base.Add(d1), d2)
	sp.Segment("link.response", base.Add(d1+d2), secondsToDuration(down))

	sp.SetAttr("verdict", verdictLabel(res))
	sp.SetAttr("elapsed_seconds", strconv.FormatFloat(elapsed, 'g', -1, 64))
	t.journal(telemetry.EventVerifyOutcome, trace, ch.Session, device,
		fmt.Sprintf("verdict=%s reason=%q elapsed=%.4gs", verdictLabel(res), res.Reason, elapsed))
	t.observeHealth(device, res, attempt)
	return res, trace, nil
}

// verdictLabel names a result for span attributes and log lines.
func verdictLabel(res Result) string {
	if res.Accepted {
		return "accepted"
	}
	return "rejected"
}
