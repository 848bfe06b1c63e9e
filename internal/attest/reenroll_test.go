package attest

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/crp"
	"pufatt/internal/crp/store"
	"pufatt/internal/rng"
)

// reenrollFixture is the lifecycle harness: a standard fixture plus a
// durable store enrolled from an enrollment twin — a second instance of
// the same manufacturing seed, the facility-side device the Reenroller
// reconfigures and measures while the live prover keeps answering.
func reenrollFixture(t *testing.T, seed uint64, budget int) (*fixture, *store.Store, *core.Device, string) {
	t.Helper()
	f := newFixture(t, seed)
	twin := core.MustNewDevice(core.MustNewDesign(core.DefaultConfig()), rng.New(seed), 0)
	seeds := make([]uint64, budget)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	dir := t.TempDir()
	st, err := store.Enroll(dir, twin, seeds, 0, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	f.verifier.Device = "reenroll-dev"
	f.verifier.WithSeedBudget(st)
	return f, st, twin, dir
}

// cutoverToLiveDevice returns the OnCutover hook a deployment installs:
// reconfigure the live prover's device and re-derive the verifier's
// emulation pipeline, inside the gate's exclusive section so no session
// sees one without the other.
func cutoverToLiveDevice(f *fixture) func(old, new uint32) {
	return func(_, epoch uint32) {
		f.dev.SetEpoch(epoch)
		f.verifier.Pipeline = core.MustNewVerifierPipeline(f.dev.Emulator())
	}
}

// TestRollingReenrollLifecycle is the PR's acceptance scenario: enroll →
// burn the budget through a faulty link → low-budget watermark → background
// re-enrollment under live traffic → epoch cutover → old epoch retired —
// with zero transition-attributable session failures end to end.
func TestRollingReenrollLifecycle(t *testing.T) {
	f, st, twin, dir := reenrollFixture(t, 90, 16)
	gate := &EpochGate{}
	f.verifier.Gate = gate
	T := newFleetTelemetry()
	ren := &Reenroller{
		Store:         st,
		Device:        twin,
		DeviceName:    "reenroll-dev",
		Watermark:     3,
		SeedsPerEpoch: 12,
		Gate:          gate,
		OnCutover:     cutoverToLiveDevice(f),
		Telemetry:     T,
	}

	// The link drops the first three responses outright (then heals): each
	// drop burns a claimed seed through the retry loop, so the budget wears
	// exactly the way a lossy deployment wears it.
	faulty := NewFaultyLink(f.prover, FaultPlan{Drop: 1, MaxFaults: 3}, 901)
	sessions := 0
	run := func(stage string) {
		res, _, err := RunSessionRetry(context.Background(), f.verifier, faulty, DefaultLink(), RetryPolicy{MaxAttempts: 5})
		if err != nil {
			t.Fatalf("%s session %d: %v", stage, sessions, err)
		}
		if !res.Accepted {
			t.Fatalf("%s session %d rejected: %s", stage, sessions, res.Reason)
		}
		sessions++
	}

	// Burn the enrolled budget down to the watermark. The Reenroller must
	// not fire while the budget is healthy.
	for st.Remaining() > ren.Watermark {
		if ren.Check() {
			t.Fatalf("re-enrollment triggered at remaining=%d, watermark %d", st.Remaining(), ren.Watermark)
		}
		run("burn")
	}
	if !ren.Check() {
		t.Fatalf("watermark %d reached (remaining=%d) but no re-enrollment triggered",
			ren.Watermark, st.Remaining())
	}

	// Live attestation keeps draining the old epoch while the background
	// measurement runs; the gate decides which side of the cutover each
	// session lands on, and both sides must verify.
	run("during-reenroll")
	run("during-reenroll")
	if err := ren.Wait(); err != nil {
		t.Fatalf("re-enrollment failed: %v", err)
	}
	for phase, want := range map[string]uint64{"triggered": 1, "staged": 1, "committed": 1, "failed": 0} {
		if got := T.Reenrolls.With(phase).Value(); got != want {
			t.Fatalf("attest_reenrollments_total{phase=%s} = %d, want %d", phase, got, want)
		}
	}

	if st.Epoch() != 1 {
		t.Fatalf("store epoch after cutover = %d, want 1", st.Epoch())
	}
	if f.dev.Epoch() != 1 {
		t.Fatalf("live prover not reconfigured: epoch %d", f.dev.Epoch())
	}
	if st.Remaining() < ren.SeedsPerEpoch-2 {
		t.Fatalf("fresh budget = %d, want ~%d", st.Remaining(), ren.SeedsPerEpoch)
	}

	// Post-cutover traffic attests under the new epoch.
	for i := 0; i < 3; i++ {
		run("post-cutover")
	}
	if ren.Check() {
		t.Fatalf("re-enrollment re-triggered on a healthy budget (remaining=%d)", st.Remaining())
	}

	// The whole cycle is durable: a reopened store is at the new epoch with
	// the new budget, old seeds gone.
	st.Close()
	re, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != 1 {
		t.Fatalf("reopened store epoch = %d, want 1", re.Epoch())
	}
	if err := re.Claim(1); !errors.Is(err, crp.ErrUnknownSeed) {
		t.Fatalf("old-epoch seed survived the cutover: %v", err)
	}
}

// TestExhaustionTypedErrorAndRecovery drives the budget to empty with no
// watermark in place, checks the typed lifecycle error, and recovers via a
// synchronous re-enrollment — the operator's `-reenroll` path.
func TestExhaustionTypedErrorAndRecovery(t *testing.T) {
	f, st, twin, _ := reenrollFixture(t, 91, 2)
	for i := 0; i < 2; i++ {
		if res, err := RunSession(f.verifier, f.prover, DefaultLink()); err != nil || !res.Accepted {
			t.Fatalf("session %d: %v %+v", i, err, res)
		}
	}

	_, err := RunSession(f.verifier, f.prover, DefaultLink())
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("exhausted budget returned %T: %v, want *ExhaustedError", err, err)
	}
	if ex.Device != "reenroll-dev" || ex.Epoch != 0 {
		t.Fatalf("ExhaustedError carries device=%q epoch=%d", ex.Device, ex.Epoch)
	}
	if !IsExhausted(err) || !errors.Is(err, crp.ErrExhausted) {
		t.Fatalf("typed error lost its classification: %v", err)
	}
	if IsTransport(err) {
		t.Fatal("exhaustion classified as transport")
	}
	// Terminal: the retry loop must not burn attempts on it.
	if _, attempts, rerr := RunSessionRetry(context.Background(), f.verifier, f.prover, DefaultLink(),
		RetryPolicy{MaxAttempts: 5}); attempts != 1 || !IsExhausted(rerr) {
		t.Fatalf("retrying an exhausted budget: attempts=%d err=%v", attempts, rerr)
	}

	// A run that cannot stage (no seeds to measure) fails and leaves the
	// exhausted epoch in place; the operator's retry with a real seed set
	// recovers.
	T := newFleetTelemetry()
	ren := &Reenroller{
		Store:      st,
		Device:     twin,
		DeviceName: "reenroll-dev",
		OnCutover:  cutoverToLiveDevice(f),
		Telemetry:  T,
	}
	if err := ren.Run(); err == nil || st.Epoch() != 0 {
		t.Fatalf("zero-seed re-enrollment: err=%v epoch=%d, want an error at epoch 0", err, st.Epoch())
	}
	ren.SeedsPerEpoch = 4
	if err := ren.Run(); err != nil {
		t.Fatalf("recovery re-enrollment: %v", err)
	}
	for phase, want := range map[string]uint64{"failed": 1, "staged": 1, "committed": 1} {
		if got := T.Reenrolls.With(phase).Value(); got != want {
			t.Fatalf("attest_reenrollments_total{phase=%s} = %d, want %d", phase, got, want)
		}
	}
	if st.Epoch() != 1 || st.Remaining() != 4 {
		t.Fatalf("after recovery: epoch=%d remaining=%d", st.Epoch(), st.Remaining())
	}
	if res, err := RunSession(f.verifier, f.prover, DefaultLink()); err != nil || !res.Accepted {
		t.Fatalf("post-recovery session: %v %+v", err, res)
	}
}

// TestEpochMismatchFailsClosed: when prover and verifier disagree on the
// device's epoch — a cutover one side has not seen — the session completes
// and is REJECTED. Not a transport fault, not an error: fail closed, don't
// retry.
func TestEpochMismatchFailsClosed(t *testing.T) {
	// Prover ahead of the verifier: the device reconfigured, the verifier
	// still holds the epoch-0 enrollment.
	f := newFixture(t, 92)
	f.verifier.WithSeedBudget(budgetDB(t, f, 2))
	f.dev.SetEpoch(1)
	res, err := RunSession(f.verifier, f.prover, DefaultLink())
	if err != nil {
		t.Fatalf("epoch mismatch must complete the session, got error: %v", err)
	}
	if res.Accepted || !strings.HasPrefix(res.Reason, "epoch mismatch") {
		t.Fatalf("verdict = %+v, want epoch-mismatch rejection", res)
	}
	if got := rejectionClass(res.Reason); got != "epoch_mismatch" {
		t.Fatalf("rejectionClass = %q, want epoch_mismatch", got)
	}

	// Verifier ahead of the prover (re-enrolled, device rollback or clone
	// serving the old instance): same closed failure.
	f2 := newFixture(t, 93)
	f2.verifier.PUFEpoch = 2
	res, err = RunSession(f2.verifier, f2.prover, DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted || !strings.HasPrefix(res.Reason, "epoch mismatch") {
		t.Fatalf("verdict = %+v, want epoch-mismatch rejection", res)
	}
}

// TestChallengeEpochWireRoundTrip: the epoch extension survives the codec,
// and epoch 0 encodes byte-identically to the pre-epoch wire format.
func TestChallengeEpochWireRoundTrip(t *testing.T) {
	for _, epoch := range []uint32{0, 1, 0xfffffffe} {
		ch := Challenge{Session: 42, Nonce: 0xdeadbeef, PUFSeed: 0x1234, Epoch: epoch}
		var buf bytes.Buffer
		if err := WriteChallenge(&buf, ch); err != nil {
			t.Fatal(err)
		}
		got, err := ReadChallenge(&buf)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if got != ch {
			t.Fatalf("round trip: got %+v, want %+v", got, ch)
		}
	}

	// Legacy interop: an epoch-0 challenge is indistinguishable on the wire
	// from one emitted before epochs existed.
	legacy := Challenge{Session: 7, Nonce: 1, PUFSeed: 2}
	var a, b bytes.Buffer
	if err := WriteChallenge(&a, legacy); err != nil {
		t.Fatal(err)
	}
	legacy.Epoch = 0
	if err := WriteChallenge(&b, legacy); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("epoch-0 challenge encoding differs from legacy")
	}
}

func TestResponseEpochWireRoundTrip(t *testing.T) {
	base := Response{Session: 9, Tag: [8]uint32{1, 2, 3, 4, 5, 6, 7, 8}}
	base.Helpers = make([]uint64, 16)
	for i := range base.Helpers {
		base.Helpers[i] = uint64(i) * 0x0101
	}
	for _, epoch := range []uint32{0, 3, 0xffffffff} {
		resp := base
		resp.Epoch = epoch
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			t.Fatal(err)
		}
		got, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if got.Session != resp.Session || got.Tag != resp.Tag || got.Epoch != resp.Epoch {
			t.Fatalf("round trip: got %+v, want %+v", got, resp)
		}
		for i := range resp.Helpers {
			if got.Helpers[i] != resp.Helpers[i] {
				t.Fatalf("epoch %d helper %d mismatch", epoch, i)
			}
		}
	}
}
