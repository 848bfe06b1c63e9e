package pufatt

import (
	"context"
	"net"
	"strings"
	"testing"

	"pufatt/internal/attest"
)

func testRNG(seed uint64) *Rand { return NewRand(seed) }

func TestFPGAFacade(t *testing.T) {
	cfg := DefaultFPGAConfig()
	design, err := NewFPGADesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	board, err := NewFPGABoard(design, 5, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := board.Calibrate(4, 100, testRNG(1))
	if len(rep.FinalBias) != 16 {
		t.Errorf("calibration bias vector has %d entries", len(rep.FinalBias))
	}
	ch := NewSIRCChannel(board, 125e6)
	seeds, resps, err := ch.CollectCRPs(10, testRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 10 || len(resps) != 10 {
		t.Error("collection size wrong")
	}
	rows, err := Table1(16)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(FormatTable1(rows), "SIRC") {
		t.Error("Table1 formatting broken")
	}
}

func TestAttackFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Width = 16
	design, _ := NewDesign(cfg)
	dev, _ := NewDevice(design, 7, 0)
	m := TrainRawModel(dev, 400, 10, 8)
	if acc := EvaluateRawModel(m, dev, 100, 9); acc < 0.7 {
		t.Errorf("facade-trained raw model accuracy %.3f", acc)
	}
	oracle, err := NewObfuscatedOracle(dev)
	if err != nil {
		t.Fatal(err)
	}
	mo := TrainObfuscatedModel(oracle, 200, 5, 10)
	if acc := EvaluateObfuscatedModel(mo, oracle, 50, 11); acc > 0.95 {
		t.Errorf("obfuscated model suspiciously accurate: %.3f", acc)
	}
	pts := OverclockSweep(dev, mustPort(t, dev), []float64{1.0, 2.0}, 20, 12)
	if len(pts) != 2 {
		t.Fatal("sweep size wrong")
	}
	if OracleAttackTime(10, DefaultLink()) <= 0 {
		t.Error("oracle time not positive")
	}
}

func mustPort(t *testing.T, dev *Device) *DevicePort {
	t.Helper()
	p, err := NewDevicePort(dev)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAttestationFacadeAndForgery(t *testing.T) {
	design, _ := NewDesign(DefaultConfig())
	dev, _ := NewDevice(design, 13, 0)
	port := mustPort(t, dev)
	params := AttestParams{MemWords: 1024, Chunks: 4, BlocksPerChunk: 8}
	image, err := BuildAttestationImage(params, []uint32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	src, err := GenerateAttestationProgram(params)
	if err != nil || !strings.Contains(src, "pstart") {
		t.Fatalf("program generation: %v", err)
	}
	prover := NewProver(image.Clone(), port, 1)
	prover.TuneClock(0.98)
	verifier, err := NewVerifier(image, dev.Emulator(), prover.FreqHz, port.Votes)
	if err != nil {
		t.Fatal(err)
	}
	verifier.AllowNetwork(DefaultLink())
	res, err := RunSession(verifier, prover, DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("facade session rejected: %s", res.Reason)
	}
	extra, honest, forged, err := ForgeryOverheadCycles(image, port.Votes)
	if err != nil || extra == 0 || forged <= honest {
		t.Fatalf("forgery accounting: extra=%d honest=%d forged=%d err=%v", extra, honest, forged, err)
	}
	if _, err := NewForgeryProver(image, []uint32{0xBAD}, port, prover.FreqHz); err != nil {
		t.Fatal(err)
	}
}

func TestServeProverFacade(t *testing.T) {
	design, _ := NewDesign(DefaultConfig())
	dev, _ := NewDevice(design, 17, 0)
	port := mustPort(t, dev)
	image, _ := BuildAttestationImage(AttestParams{MemWords: 1024, Chunks: 4, BlocksPerChunk: 2}, nil)
	prover := NewProver(image.Clone(), port, 1)
	prover.TuneClock(0.98)
	addr, closeFn, err := ServeProver("127.0.0.1:0", prover)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	verifier, _ := NewVerifier(image, dev.Emulator(), prover.FreqHz, port.Votes)
	verifier.AllowNetwork(DefaultLink())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := attest.RequestContext(context.Background(), conn, verifier, DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("TCP facade session rejected: %s", res.Reason)
	}
}
