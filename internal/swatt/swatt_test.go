package swatt

import (
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/mcu"
	"pufatt/internal/rng"
)

func testParams() Params {
	return Params{MemWords: 1024, Chunks: 4, BlocksPerChunk: 2, PRG: PRGMix32}
}

func zeroPUF(seed uint32) (uint32, error) { return 0, nil }

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{MemWords: 1000, Chunks: 1, BlocksPerChunk: 1},          // not a power of 2
		{MemWords: 1024, Chunks: 0, BlocksPerChunk: 1},          // no chunks
		{MemWords: 1024, Chunks: 1, BlocksPerChunk: 0},          // no blocks
		{MemWords: 1024, Chunks: 1, BlocksPerChunk: 1, PRG: 99}, // bad PRG
		{MemWords: -4, Chunks: 1, BlocksPerChunk: 1},            // negative
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
	if got := DefaultParams().Rounds(); got != 64*4*8 {
		t.Errorf("Rounds = %d", got)
	}
}

func TestChecksumDeterministic(t *testing.T) {
	p := testParams()
	mem := make([]uint32, p.MemWords)
	src := rng.New(1)
	for i := range mem {
		mem[i] = src.Uint32()
	}
	a, err := Checksum(mem, 42, p, zeroPUF)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Checksum(mem, 42, p, zeroPUF)
	if a != b {
		t.Fatal("checksum not deterministic")
	}
}

func TestChecksumSensitiveToMemory(t *testing.T) {
	// Coverage needs Rounds >> N·ln N: 32×8×8 = 2048 rounds over 256 words
	// leaves P(word unsampled) ≈ e^-8.
	p := Params{MemWords: 256, Chunks: 32, BlocksPerChunk: 8, PRG: PRGMix32}
	mem := make([]uint32, p.MemWords)
	src := rng.New(2)
	for i := range mem {
		mem[i] = src.Uint32()
	}
	ref, _ := Checksum(mem, 42, p, zeroPUF)
	// Flip one bit anywhere: the response must change (with these round
	// counts every word is expected to be sampled multiple times).
	flips := 0
	for trial := 0; trial < 20; trial++ {
		addr := src.Intn(p.MemWords)
		mem[addr] ^= 1 << uint(trial%32)
		got, _ := Checksum(mem, 42, p, zeroPUF)
		mem[addr] ^= 1 << uint(trial%32)
		if got != ref {
			flips++
		}
	}
	if flips < 18 {
		t.Errorf("only %d/20 single-bit memory changes altered the checksum", flips)
	}
}

func TestChecksumSensitiveToNonce(t *testing.T) {
	p := testParams()
	mem := make([]uint32, p.MemWords)
	a, _ := Checksum(mem, 1, p, zeroPUF)
	b, _ := Checksum(mem, 2, p, zeroPUF)
	if a == b {
		t.Error("different nonces gave identical checksums")
	}
}

func TestChecksumSensitiveToPUFOutput(t *testing.T) {
	p := testParams()
	mem := make([]uint32, p.MemWords)
	a, _ := Checksum(mem, 7, p, func(uint32) (uint32, error) { return 0x1111, nil })
	b, _ := Checksum(mem, 7, p, func(uint32) (uint32, error) { return 0x2222, nil })
	if a == b {
		t.Error("different PUF outputs gave identical checksums")
	}
}

func TestChecksumPUFSeedsDependOnPriorZ(t *testing.T) {
	// The z folded into x must change subsequent PUF challenge seeds —
	// the entanglement that defeats precomputing all challenges.
	p := testParams()
	mem := make([]uint32, p.MemWords)
	var seeds1, seeds2 []uint32
	Checksum(mem, 7, p, func(s uint32) (uint32, error) { seeds1 = append(seeds1, s); return 0xAAAA, nil })
	Checksum(mem, 7, p, func(s uint32) (uint32, error) { seeds2 = append(seeds2, s); return 0xBBBB, nil })
	if seeds1[0] != seeds2[0] {
		t.Error("first seed should not depend on z")
	}
	if seeds1[1] == seeds2[1] {
		t.Error("second seed should depend on the first z")
	}
}

func TestChecksumErrors(t *testing.T) {
	p := testParams()
	if _, err := Checksum(make([]uint32, 10), 1, p, zeroPUF); err == nil {
		t.Error("short memory accepted")
	}
	bad := p
	bad.MemWords = 1000
	if _, err := Checksum(make([]uint32, 1024), 1, bad, zeroPUF); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := Checksum(make([]uint32, 1024), 1, p, func(uint32) (uint32, error) {
		return 0, errTest
	}); err == nil {
		t.Error("PUF error not propagated")
	}
}

var errTest = errType{}

type errType struct{}

func (errType) Error() string { return "test error" }

func TestTFuncPRGDiffers(t *testing.T) {
	// With non-uniform memory the traversal order matters, so different
	// PRGs must yield different checksums. (Over all-zero memory the
	// checksum is PRG-independent by construction.)
	p := testParams()
	mem := make([]uint32, p.MemWords)
	src := rng.New(4)
	for i := range mem {
		mem[i] = src.Uint32()
	}
	a, _ := Checksum(mem, 3, p, zeroPUF)
	pT := p
	pT.PRG = PRGTFunc
	b, _ := Checksum(mem, 3, pT, zeroPUF)
	if a == b {
		t.Error("Mix32 and T-function PRGs gave identical checksums")
	}
}

func TestFoldResponse(t *testing.T) {
	a := FoldResponse([8]uint32{1, 2, 3, 4, 5, 6, 7, 8})
	b := FoldResponse([8]uint32{1, 2, 3, 4, 5, 6, 7, 9})
	if a == b {
		t.Error("fold insensitive to state")
	}
}

func TestGenerateProgramAssembles(t *testing.T) {
	for _, prg := range []PRG{PRGMix32, PRGTFunc} {
		p := testParams()
		p.PRG = prg
		src, err := GenerateProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := mcu.Assemble(src)
		if err != nil {
			t.Fatalf("PRG %d: %v", prg, err)
		}
		if len(prog.Words) < 100 {
			t.Errorf("PRG %d: program suspiciously small (%d words)", prg, len(prog.Words))
		}
	}
}

func TestBuildImageLayout(t *testing.T) {
	p := testParams()
	payload := []uint32{0xAA, 0xBB, 0xCC}
	im, err := BuildImage(p, payload)
	if err != nil {
		t.Fatal(err)
	}
	l := im.Layout
	if l.PayloadAddr != l.ProgWords {
		t.Error("payload must follow the program")
	}
	if im.Mem[l.PayloadAddr] != 0xAA || im.Mem[l.PayloadAddr+2] != 0xCC {
		t.Error("payload not copied")
	}
	if l.NonceAddr != p.MemWords || l.TotalWords != p.MemWords+26 {
		t.Errorf("scratch layout wrong: %+v", l)
	}
	if len(im.Mem) != l.TotalWords {
		t.Errorf("image size %d, want %d", len(im.Mem), l.TotalWords)
	}
}

func TestBuildImageRejectsOversizedPayload(t *testing.T) {
	p := Params{MemWords: 512, Chunks: 1, BlocksPerChunk: 1}
	if _, err := BuildImage(p, make([]uint32, 512)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestImageClone(t *testing.T) {
	im, _ := BuildImage(testParams(), nil)
	cp := im.Clone()
	cp.Mem[0] = 0xdeadbeef
	if im.Mem[0] == 0xdeadbeef {
		t.Error("Clone shares memory")
	}
}

// devicePUF adapts a core pipeline to the Checksum callback, mirroring what
// the verifier does with recovered z values.
func devicePUF(t *testing.T, pl *core.Pipeline) func(uint32) (uint32, error) {
	return func(seed uint32) (uint32, error) {
		out, err := pl.Query(uint64(seed))
		if err != nil {
			return 0, err
		}
		return uint32(out.ZWord()), nil
	}
}

// TestMCUChecksumMatchesNative is the keystone test of the prover
// substrate: the generated assembly, executed on the simulated CPU with the
// real PUF port, must produce exactly the checksum the native Go
// implementation computes when fed the same PUF outputs (recovered by the
// verifier pipeline from the port's helper-data stream).
func TestMCUChecksumMatchesNative(t *testing.T) {
	for _, prg := range []PRG{PRGMix32, PRGTFunc} {
		p := testParams()
		p.PRG = prg
		cfg := core.DefaultConfig()
		cfg.Width = 16
		dev := core.MustNewDevice(core.MustNewDesign(cfg), rng.New(11), 0)
		port := mcu.MustNewDevicePort(dev)
		port.SetClock(50e6)

		payload := make([]uint32, 100)
		src := rng.New(12)
		for i := range payload {
			payload[i] = src.Uint32()
		}
		im, err := BuildImage(p, payload)
		if err != nil {
			t.Fatal(err)
		}
		const nonce = 0xfeed0042

		// Prover: run the assembly on the MCU.
		proverIm := im.Clone()
		proverIm.Layout.SetNonce(proverIm.Mem, nonce)
		cpu := mcu.New(proverIm.Mem, 50e6, port)
		if err := cpu.Run(100_000_000); err != nil {
			t.Fatalf("PRG %d: prover run: %v", prg, err)
		}
		proverC := proverIm.Layout.ReadResult(proverIm.Mem)
		helpers := port.DrainHelpers()
		if len(helpers) != 8*p.Chunks {
			t.Fatalf("PRG %d: %d helper words, want %d", prg, len(helpers), 8*p.Chunks)
		}

		// Verifier: native checksum over the expected memory, recovering
		// each z from the emulator and the prover's helper stream.
		vp := core.MustNewVerifierPipeline(dev.Emulator())
		idx := 0
		verifierC, err := Checksum(im.Layout.AttestedRegion(im.Mem), nonce, p, func(seed uint32) (uint32, error) {
			h := helpers[idx*8 : idx*8+8]
			idx++
			z, err := vp.Recover(uint64(seed), h)
			return uint32(z), err
		})
		if err != nil {
			t.Fatalf("PRG %d: verifier checksum: %v", prg, err)
		}
		if proverC != verifierC {
			t.Fatalf("PRG %d:\nprover   %08x\nverifier %08x", prg, proverC, verifierC)
		}
	}
}

func TestExpectedCyclesDataIndependent(t *testing.T) {
	p := testParams()
	imA, _ := BuildImage(p, []uint32{1, 2, 3})
	imB, _ := BuildImage(p, []uint32{9, 9, 9, 9, 9, 9})
	a, err := ExpectedCycles(imA, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExpectedCycles(imB, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("cycle count depends on payload: %d vs %d", a, b)
	}
	if a == 0 {
		t.Error("zero expected cycles")
	}
}

func TestExpectedCyclesMatchesRealRun(t *testing.T) {
	p := testParams()
	cfg := core.DefaultConfig()
	cfg.Width = 16
	dev := core.MustNewDevice(core.MustNewDesign(cfg), rng.New(13), 0)
	port := mcu.MustNewDevicePort(dev)
	port.SetClock(50e6)
	im, _ := BuildImage(p, nil)
	want, err := ExpectedCycles(im, port.Votes)
	if err != nil {
		t.Fatal(err)
	}
	run := im.Clone()
	run.Layout.SetNonce(run.Mem, 123)
	cpu := mcu.New(run.Mem, 50e6, port)
	if err := cpu.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if cpu.Cycles != want {
		t.Errorf("real run took %d cycles, dry run predicted %d", cpu.Cycles, want)
	}
}
