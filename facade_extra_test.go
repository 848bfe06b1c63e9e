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
}

func TestServeProverFacade(t *testing.T) {
	sys, err := NewSystem(Options{
		Attest: AttestParams{MemWords: 1024, Chunks: 4, BlocksPerChunk: 2},
		Seed:   17,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, closeFn, err := ServeProver("127.0.0.1:0", sys.Prover)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	sys.Verifier.AllowNetwork(DefaultLink())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := attest.RequestContext(context.Background(), conn, sys.Verifier, DefaultLink())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("TCP facade session rejected: %s", res.Reason)
	}
}
