package attest

import (
	"fmt"

	"pufatt/internal/core"
	"pufatt/internal/swatt"
	"pufatt/internal/telemetry"
)

// Result records one attestation decision.
type Result struct {
	Accepted bool
	Reason   string
	// Elapsed is the verifier-observed round-trip time (seconds) and Delta
	// the enforced bound.
	Elapsed float64
	Delta   float64
}

// Verifier holds everything V needs: the expected memory image, the
// checksum parameters, the device's reference source (emulator or CRP
// database), and the timing policy.
type Verifier struct {
	// Device names the subject device for observability: health-registry
	// aggregates, journal events, and span attributes are keyed by it.
	// Empty means anonymous (sessions run, but no per-device health is
	// kept). Fleet.Enroll fills it with "node-<id>" when unset.
	Device string

	Expected *swatt.Image
	Pipeline *core.VerifierPipeline
	// BaseFreqHz is the prover clock frequency V expects (F_base in
	// Section 4.2).
	BaseFreqHz float64
	// ExpectedCycles is the attestation program's (data-independent) cycle
	// count.
	ExpectedCycles uint64
	// ComputeSlack is the tolerated relative compute overshoot (e.g. 0.05
	// = 5 %); the paper's assumption is that the honest algorithm is
	// near-optimal, so the slack can be small.
	ComputeSlack float64
	// NetworkAllowance is the absolute time budget (seconds) added for
	// message transfer and propagation.
	NetworkAllowance float64
	// Seeds, when non-nil, is the verifier's authentication budget: every
	// session claims one enrolled single-use seed and binds it into the
	// challenge (see budget.go). Nil means emulation-model verification
	// with no budget.
	Seeds SeedBudget
	// PUFEpoch is the device reconfiguration epoch this verifier's
	// reference source was enrolled at, for budgets that cannot report it
	// themselves (and for budgetless emulation verification of a
	// reconfigured device). Epoch-aware budgets override it per session.
	PUFEpoch uint32
	// Gate, when non-nil, serialises this verifier's sessions against
	// epoch cutovers (see reenroll.go): a session holds the gate in read
	// mode from seed claim to verdict, and a cutover takes it in write
	// mode, so no session ever spans a reconfiguration.
	Gate *EpochGate
	// Nonces, when non-nil, supplies the challenge nonce r0 in place of
	// crypto/rand. Production verifiers leave it nil; test and audit
	// harnesses install a seeded stream so session outcomes are exactly
	// reproducible.
	Nonces func() uint32

	sessions uint64
}

// NewVerifier builds a verifier for the expected image over the given
// reference source. votes must match the prover port's majority-voting
// factor (it affects the cycle count).
func NewVerifier(expected *swatt.Image, src core.ReferenceSource, baseFreqHz float64, votes int) (*Verifier, error) {
	vp, err := core.NewVerifierPipelineFrom(src)
	if err != nil {
		return nil, err
	}
	cycles, err := swatt.ExpectedCycles(expected, votes)
	if err != nil {
		return nil, err
	}
	return &Verifier{
		Expected:         expected,
		Pipeline:         vp,
		BaseFreqHz:       baseFreqHz,
		ExpectedCycles:   cycles,
		ComputeSlack:     0.05,
		NetworkAllowance: 0.05,
	}, nil
}

// ExpectedResponseBits returns the wire size of an honest response for the
// verifier's checksum parameters.
func (v *Verifier) ExpectedResponseBits() int {
	return (8+32)*8 + 8*v.Expected.Layout.Params.Chunks*HelperBitsPerWord + 32
}

// AllowNetwork sets the network allowance from a link model: one challenge
// transfer plus one response transfer (the helper stream dominates), with a
// 25 % margin for jitter. Deployments that know their link tighter should
// set NetworkAllowance directly.
func (v *Verifier) AllowNetwork(link Link) {
	cost := link.TransferSeconds(ChallengeBits) + link.TransferSeconds(v.ExpectedResponseBits())
	v.NetworkAllowance = 1.25 * cost
}

// Delta returns the enforced time bound δ.
func (v *Verifier) Delta() float64 {
	return float64(v.ExpectedCycles)/v.BaseFreqHz*(1+v.ComputeSlack) + v.NetworkAllowance
}

// NewSession draws a fresh challenge. When a seed budget is bound, the
// session first claims one single-use seed and carries it as the
// challenge's x0 — so issuing a session IS consuming budget, and an
// exhausted budget fails here with a terminal (non-transport) error.
func (v *Verifier) NewSession() (Challenge, error) {
	v.sessions++
	ch, err := NewChallenge(v.sessions)
	if err != nil {
		return Challenge{}, err
	}
	if v.Nonces != nil {
		// Both random words of the challenge come from the stream; a
		// bound seed budget overrides x0 with the claimed seed below.
		ch.Nonce = v.Nonces()
		ch.PUFSeed = v.Nonces()
	}
	if err := v.claimSeed(&ch); err != nil {
		return Challenge{}, err
	}
	return ch, nil
}

// Verify checks a prover response against the challenge and the observed
// elapsed time. Every completed verification feeds the attest_rtt_seconds
// histogram and the per-verdict session counters — the timing distribution
// IS the security argument (Section 4), so it is always measured.
func (v *Verifier) Verify(ch Challenge, resp Response, elapsed float64) Result {
	return v.verifyObserved(tel, 0, ch, resp, elapsed)
}

// verifyObserved is Verify against an explicit telemetry bundle, recording
// the verdict (and the session's trace ID as the RTT exemplar) into that
// bundle's instruments — so a test's private bundle sees its own sessions,
// and history exemplars point at the right tracer.
func (v *Verifier) verifyObserved(t *Telemetry, trace telemetry.TraceID, ch Challenge, resp Response, elapsed float64) Result {
	res := v.verify(ch, resp, elapsed)
	t.observeSession(res, trace)
	return res
}

func (v *Verifier) verify(ch Challenge, resp Response, elapsed float64) Result {
	res := Result{Elapsed: elapsed, Delta: v.Delta()}
	if resp.Session != ch.Session {
		res.Reason = "session mismatch"
		return res
	}
	if resp.Epoch != ch.Epoch {
		// Prover and verifier disagree on the device's reconfiguration
		// epoch (a cutover one side has not seen). The response cannot
		// verify against this enrollment, so fail closed as a rejection —
		// the transport is fine, retrying would only burn budget.
		res.Reason = fmt.Sprintf("epoch mismatch: prover at epoch %d, verifier enrolled at %d", resp.Epoch, ch.Epoch)
		return res
	}
	if elapsed > res.Delta {
		res.Reason = fmt.Sprintf("time bound exceeded: %.4gs > δ=%.4gs", elapsed, res.Delta)
		return res
	}
	p := v.Expected.Layout.Params
	if len(resp.Helpers) != 8*p.Chunks {
		res.Reason = fmt.Sprintf("helper stream has %d words, want %d", len(resp.Helpers), 8*p.Chunks)
		return res
	}
	idx := 0
	want, err := swatt.Checksum(v.Expected.Layout.AttestedRegion(v.Expected.Mem), ch.EffectiveNonce(), p,
		func(seed uint32) (uint32, error) {
			h := resp.Helpers[idx*8 : idx*8+8]
			idx++
			z, err := v.Pipeline.Recover(uint64(seed), h)
			return uint32(z), err
		})
	if err != nil {
		res.Reason = "reference checksum: " + err.Error()
		return res
	}
	if want != resp.Tag {
		res.Reason = "attestation response mismatch"
		return res
	}
	res.Accepted = true
	res.Reason = "ok"
	return res
}
