package attest

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

// goldenPath holds one line per (case, seed): the challenge, the prover's
// simulated compute time (Float64bits), tag, every helper word and the
// verdict. It pins the whole session path end to end — the MCU port's
// clocked, voted PUF queries and sketch generation on the prover side,
// Recover and the reference checksum on the verifier side — so a change to
// the engines under either must reproduce it byte for byte.
const goldenPath = "testdata/golden_sessions.txt"

// goldenSession runs one session of the named case at the paper geometry
// (1024 words, 8 chunks × 8 blocks, Mix32) and renders its transcript.
func goldenSession(t *testing.T, name string, seed uint64) string {
	t.Helper()
	design := core.MustNewDesign(core.DefaultConfig())
	dev := core.MustNewDevice(design, rng.New(seed), int(seed))
	p := swatt.Params{MemWords: 1024, Chunks: 8, BlocksPerChunk: 8, PRG: swatt.PRGMix32}
	payload := make([]uint32, 200)
	src := rng.New(seed + 1)
	for i := range payload {
		payload[i] = src.Uint32()
	}
	image, err := swatt.BuildImage(p, payload)
	if err != nil {
		t.Fatal(err)
	}
	if name == "epoch" {
		dev.SetEpoch(1)
	}
	prover, verifier, err := NewPair(dev, image)
	if err != nil {
		t.Fatal(err)
	}
	verifier.Nonces = rng.New(seed + 2).Uint32

	malware := make([]uint32, 50)
	for i := range malware {
		malware[i] = 0xbad00000 | uint32(i)
	}
	forgery, err := swatt.BuildForgeryImage(p, image, malware)
	if err != nil {
		t.Fatal(err)
	}
	honestCycles, err := swatt.ExpectedCycles(image, prover.Port.Votes)
	if err != nil {
		t.Fatal(err)
	}
	forgedCycles, err := swatt.ExpectedCycles(forgery, prover.Port.Votes)
	if err != nil {
		t.Fatal(err)
	}
	// A local-bus timing policy tight enough that the forgery's extra
	// cycles cannot hide in the slack (as in package attacks' scenarios).
	extra := float64(forgedCycles - honestCycles)
	link := Link{LatencySeconds: 5e-7, BitsPerSecond: 1e9}
	verifier.ComputeSlack = 0.25 * extra / float64(honestCycles)
	verifier.NetworkAllowance = link.TransferSeconds(ChallengeBits) +
		link.TransferSeconds(verifier.ExpectedResponseBits()) + 0.25*extra/prover.FreqHz

	agent := prover
	switch name {
	case "honest", "epoch":
	case "aged":
		// A year of wear. The clock is re-tuned to the slower datapath and
		// the verifier's timing follows it, but the enrolled emulation
		// model does not: the responses drift and Recover must absorb it.
		dev.Age(8760, 0.5)
		prover.SetFreq(prover.Port.MaxReliableFreqHz() * ClockMargin)
		verifier.BaseFreqHz = prover.FreqHz
	case "forged":
		agent = NewProver(forgery, prover.Port, prover.FreqHz)
	case "overclocked":
		// Clock the forgery up until its compute time matches the honest
		// one, so the session gets past δ to the PUF check.
		agent = NewProver(forgery, prover.Port, prover.FreqHz*float64(forgedCycles)/float64(honestCycles))
	default:
		t.Fatalf("unknown golden case %q", name)
	}

	ch, err := verifier.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	resp, compute, err := agent.Respond(ch)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := link.TransferSeconds(ChallengeBits) + compute + link.TransferSeconds(resp.Bits())
	res := verifier.Verify(ch, resp, elapsed)

	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d session=%d nonce=%08x x0=%08x epoch=%d compute=%016x tag=",
		name, seed, ch.Session, ch.Nonce, ch.PUFSeed, ch.Epoch, math.Float64bits(compute))
	for i, w := range resp.Tag {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%08x", w)
	}
	b.WriteString(" helpers=")
	for i, h := range resp.Helpers {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%x", h)
	}
	fmt.Fprintf(&b, " accepted=%v reason=%s", res.Accepted, res.Reason)
	return b.String()
}

// TestGoldenSessionTranscripts replays fixed-seed sessions for an honest,
// forged, overclocked-forged, reconfigured (epoch 1) and aged device and
// compares each transcript with the recorded one.
func TestGoldenSessionTranscripts(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, name := range []string{"honest", "forged", "overclocked", "epoch", "aged"} {
		for _, seed := range []uint64{1, 2} {
			got = append(got, goldenSession(t, name, seed))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden transcripts recorded, %d produced; observed:\n%s",
			len(want), len(got), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("transcript %d differs\n got: %s\nwant: %s", i, got[i], want[i])
		}
	}
}
