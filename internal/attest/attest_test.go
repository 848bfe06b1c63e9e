package attest

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/mcu"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

// fixture builds an honest prover/verifier pair over a 32-bit device (the
// RM(1,5) sketch with majority voting makes recovery failures ~1e-9, so
// these tests are deterministic in practice).
type fixture struct {
	dev      *core.Device
	prover   *Prover
	verifier *Verifier
	params   swatt.Params
	image    *swatt.Image
}

func newFixture(t *testing.T, seed uint64) *fixture {
	t.Helper()
	dev := core.MustNewDevice(core.MustNewDesign(core.DefaultConfig()), rng.New(seed), 0)
	p := swatt.Params{MemWords: 1024, Chunks: 4, BlocksPerChunk: 2, PRG: swatt.PRGMix32}
	payload := make([]uint32, 200)
	src := rng.New(seed + 1)
	for i := range payload {
		payload[i] = src.Uint32()
	}
	image, err := swatt.BuildImage(p, payload)
	if err != nil {
		t.Fatal(err)
	}
	prover, verifier, err := NewPair(dev, image)
	if err != nil {
		t.Fatal(err)
	}
	// Seeded nonce stream: every session in the suite is exactly
	// reproducible, so verdict assertions cannot flake on a rare
	// noise-induced miss from a crypto/rand nonce.
	verifier.Nonces = rng.New(seed + 2).Uint32
	return &fixture{dev: dev, prover: prover, verifier: verifier, params: p, image: image}
}

func fixedChallenge(session uint64, nonce uint32) Challenge {
	return Challenge{Session: session, Nonce: nonce, PUFSeed: nonce ^ 0xabcd1234}
}

func TestHonestProverAccepted(t *testing.T) {
	f := newFixture(t, 1)
	for i := 0; i < 3; i++ {
		ch := fixedChallenge(uint64(i+1), 0x1000+uint32(i))
		resp, compute, err := f.prover.Respond(ch)
		if err != nil {
			t.Fatal(err)
		}
		link := DefaultLink()
		elapsed := link.TransferSeconds(ChallengeBits) + compute + link.TransferSeconds(resp.Bits())
		res := f.verifier.Verify(ch, resp, elapsed)
		if !res.Accepted {
			t.Fatalf("honest prover rejected (run %d): %s", i, res.Reason)
		}
	}
}

func TestTamperedMemoryRejected(t *testing.T) {
	f := newFixture(t, 2)
	// Infect a 50-word region on the prover (naive malware: no forgery
	// logic, so the checksum itself diverges). A region, not a single
	// word, so the 64-round traversal samples it with near certainty.
	for i := 0; i < 50; i++ {
		f.prover.Image.Mem[f.image.Layout.PayloadAddr+i] ^= 0x1
	}
	ch := fixedChallenge(1, 0x2000)
	resp, compute, err := f.prover.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	res := f.verifier.Verify(ch, resp, compute)
	if res.Accepted {
		t.Fatal("tampered prover accepted")
	}
	if !strings.Contains(res.Reason, "mismatch") {
		t.Errorf("unexpected reason: %s", res.Reason)
	}
}

func TestImpersonatingDeviceRejected(t *testing.T) {
	// A different chip (same design, same software) must fail: its PUF
	// responses decode to different z values than the enrolled device's
	// emulator predicts.
	f := newFixture(t, 3)
	otherDev := core.MustNewDevice(f.dev.Design(), rng.New(3), 99)
	otherPort := mcu.MustNewDevicePort(otherDev)
	impostor := NewProver(f.image.Clone(), otherPort, f.prover.FreqHz)
	ch := fixedChallenge(1, 0x3000)
	resp, compute, err := impostor.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	res := f.verifier.Verify(ch, resp, compute)
	if res.Accepted {
		t.Fatal("impersonating device accepted")
	}
}

func TestTimeBoundEnforced(t *testing.T) {
	f := newFixture(t, 4)
	ch := fixedChallenge(1, 0x4000)
	resp, _, err := f.prover.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	res := f.verifier.Verify(ch, resp, f.verifier.Delta()+0.001)
	if res.Accepted {
		t.Fatal("late response accepted")
	}
	if !strings.Contains(res.Reason, "time bound") {
		t.Errorf("unexpected reason: %s", res.Reason)
	}
}

func TestSessionMismatchRejected(t *testing.T) {
	f := newFixture(t, 5)
	ch := fixedChallenge(1, 0x5000)
	resp, compute, _ := f.prover.Respond(ch)
	resp.Session = 999
	if res := f.verifier.Verify(ch, resp, compute); res.Accepted {
		t.Fatal("session mismatch accepted")
	}
}

func TestHelperCountValidated(t *testing.T) {
	f := newFixture(t, 6)
	ch := fixedChallenge(1, 0x6000)
	resp, compute, _ := f.prover.Respond(ch)
	resp.Helpers = resp.Helpers[:len(resp.Helpers)-1]
	if res := f.verifier.Verify(ch, resp, compute); res.Accepted {
		t.Fatal("truncated helper stream accepted")
	}
}

func TestHelperTamperingRejected(t *testing.T) {
	f := newFixture(t, 7)
	ch := fixedChallenge(1, 0x7000)
	resp, compute, _ := f.prover.Respond(ch)
	resp.Helpers[3] ^= 0x1
	if res := f.verifier.Verify(ch, resp, compute); res.Accepted {
		t.Fatal("tampered helper data accepted")
	}
}

func TestRunSession(t *testing.T) {
	f := newFixture(t, 8)
	res, err := RunSession(f.verifier, f.prover, DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("session rejected: %s", res.Reason)
	}
	if res.Elapsed <= 0 || res.Elapsed > res.Delta {
		t.Errorf("elapsed %v outside (0, δ=%v]", res.Elapsed, res.Delta)
	}
}

func TestDeltaComposition(t *testing.T) {
	f := newFixture(t, 9)
	v := f.verifier
	want := float64(v.ExpectedCycles)/v.BaseFreqHz*1.05 + 0.05
	if got := v.Delta(); got != want {
		t.Errorf("Delta = %v, want %v", got, want)
	}
}

func TestChallengeCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Challenge{Session: 42, Nonce: 0xdeadbeef, PUFSeed: 0x1234}
	if err := WriteChallenge(&buf, in); err != nil {
		t.Fatal(err)
	}
	// No trace context, no extension: an untraced writer emits v1.
	if got := buf.Bytes()[2]; got != frameVersion {
		t.Fatalf("untraced frame version byte = %d, want v1 (%d)", got, frameVersion)
	}
	out, err := ReadChallenge(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Response{
		Session: 7,
		Tag:     [8]uint32{1, 2, 3, 4, 5, 6, 7, 8},
		Helpers: []uint64{0x3ffffff, 0, 12345},
	}
	if err := WriteResponse(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Session != in.Session || out.Tag != in.Tag || len(out.Helpers) != 3 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	for i := range in.Helpers {
		if out.Helpers[i] != in.Helpers[i] {
			t.Fatal("helper mismatch")
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	ioBefore, magicBefore := tel.FramesRejected.With("io").Value(), tel.FramesRejected.With("magic").Value()
	if _, err := ReadChallenge(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short challenge accepted")
	}
	// Hostile length prefix.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadResponse(&buf); err == nil {
		t.Error("giant frame accepted")
	}
	// Inconsistent helper count.
	var buf2 bytes.Buffer
	body := make([]byte, 44)
	body[40] = 200 // claims 200 helpers, no payload
	head := []byte{44, 0, 0, 0}
	buf2.Write(head)
	buf2.Write(body)
	if _, err := ReadResponse(&buf2); err == nil {
		t.Error("inconsistent helper count accepted")
	}
	// The two short reads die in the header, the third on its magic.
	if got := tel.FramesRejected.With("io").Value() - ioBefore; got != 2 {
		t.Errorf("attest_frames_rejected_total{reason=io} delta = %d, want 2", got)
	}
	if got := tel.FramesRejected.With("magic").Value() - magicBefore; got != 1 {
		t.Errorf("attest_frames_rejected_total{reason=magic} delta = %d, want 1", got)
	}
}

func TestEffectiveNonceMixesBothChallenges(t *testing.T) {
	a := Challenge{Nonce: 1, PUFSeed: 1}.EffectiveNonce()
	b := Challenge{Nonce: 2, PUFSeed: 1}.EffectiveNonce()
	c := Challenge{Nonce: 1, PUFSeed: 2}.EffectiveNonce()
	if a == b || a == c {
		t.Error("effective nonce insensitive to a challenge component")
	}
}

func TestLinkModel(t *testing.T) {
	l := Link{LatencySeconds: 0.01, BitsPerSecond: 1000}
	if got := l.TransferSeconds(500); got != 0.51 {
		t.Errorf("TransferSeconds = %v, want 0.51", got)
	}
	z := Link{LatencySeconds: 0.01}
	if got := z.TransferSeconds(1e6); got != 0.01 {
		t.Errorf("zero-bandwidth link should cost latency only, got %v", got)
	}
}

func TestResponseBitsAccountsHelpers(t *testing.T) {
	small := Response{}
	big := Response{Helpers: make([]uint64, 32)}
	if big.Bits()-small.Bits() != 32*HelperBitsPerWord {
		t.Errorf("helper accounting wrong: %d vs %d", big.Bits(), small.Bits())
	}
}

func TestTCPTransport(t *testing.T) {
	f := newFixture(t, 10)
	addr, closeLn, err := ListenAndServe("127.0.0.1:0", f.prover)
	if err != nil {
		t.Fatal(err)
	}
	defer closeLn()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 2; i++ {
		res, err := RequestContext(context.Background(), conn, f.verifier, DefaultLink())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("TCP attestation %d rejected: %s", i, res.Reason)
		}
	}
}

func TestNewChallengeIsRandom(t *testing.T) {
	a, err := NewChallenge(1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewChallenge(2)
	if a.Nonce == b.Nonce && a.PUFSeed == b.PUFSeed {
		t.Error("two fresh challenges identical; RNG broken?")
	}
}

func TestProverSetFreq(t *testing.T) {
	f := newFixture(t, 11)
	f.prover.SetFreq(123e6)
	if f.prover.FreqHz != 123e6 {
		t.Errorf("SetFreq did not stick: %v", f.prover.FreqHz)
	}
}

func TestLinkString(t *testing.T) {
	if s := DefaultLink().String(); !strings.Contains(s, "kbit/s") {
		t.Errorf("Link.String = %q", s)
	}
}

func TestServeSurvivesProverError(t *testing.T) {
	// A prover that errors must terminate Serve with an error, not hang.
	f := newFixture(t, 12)
	f.prover.MaxCycles = 1 // guaranteed budget exhaustion
	addr, closeLn, err := ListenAndServe("127.0.0.1:0", f.prover)
	if err != nil {
		t.Fatal(err)
	}
	defer closeLn()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteChallenge(conn, fixedChallenge(1, 2)); err != nil {
		t.Fatal(err)
	}
	// The server drops the connection without a response frame.
	if _, err := ReadResponse(conn); err == nil {
		t.Error("expected read failure after prover error")
	}
}
