package mcu

import (
	"strings"
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/rng"
	"pufatt/internal/stats"
)

func run(t *testing.T, src string, mem int, port PUFPort) *CPU {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	image := make([]uint32, mem)
	copy(image, p.Words)
	c := New(image, 100e6, port)
	if err := c.Run(10_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for op := OpHalt; op < numOps; op++ {
		w := EncodeR(op, 3, 7, 12)
		d := Decode(w)
		if d.Op != op || d.Rd != 3 || d.Rs1 != 7 || d.Rs2 != 12 {
			t.Errorf("R round trip failed for %v: %+v", op, d)
		}
	}
	for _, imm := range []int32{0, 1, -1, MaxImm, MinImm, 12345, -9876} {
		d := Decode(EncodeI(OpAddi, 1, 2, imm))
		if d.Imm != imm {
			t.Errorf("imm %d decoded as %d", imm, d.Imm)
		}
	}
}

func TestDisassembleCoversAllOps(t *testing.T) {
	words := []uint32{
		EncodeR(OpHalt, 0, 0, 0),
		EncodeR(OpAdd, 1, 2, 3),
		EncodeI(OpAddi, 1, 2, -5),
		EncodeI(OpLui, 1, 0, 100),
		EncodeI(OpLd, 1, 2, 7),
		EncodeI(OpSt, 1, 2, 7),
		EncodeI(OpBeq, 1, 2, -3),
		EncodeI(OpJmp, 0, 0, 40),
		EncodeI(OpJal, 15, 0, 40),
		EncodeI(OpJr, 0, 15, 0),
		EncodeR(OpPstart, 0, 0, 0),
		EncodeR(OpPend, 5, 0, 0),
	}
	for _, w := range words {
		s := Disassemble(w)
		if s == "" || strings.HasPrefix(s, ".word") {
			t.Errorf("disassembly of %08x: %q", w, s)
		}
	}
	if !strings.HasPrefix(Disassemble(uint32(numOps)<<26), ".word") {
		t.Error("illegal opcode should disassemble as .word")
	}
}

func TestBasicArithmetic(t *testing.T) {
	c := run(t, `
		li   r1, 7
		li   r2, 5
		add  r3, r1, r2
		sub  r4, r1, r2
		mul  r5, r1, r2
		and  r6, r1, r2
		or   r7, r1, r2
		xor  r8, r1, r2
		sltu r9, r2, r1
		halt
	`, 64, nil)
	want := map[int]uint32{3: 12, 4: 2, 5: 35, 6: 5, 7: 7, 8: 2, 9: 1}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, c.Regs[r], v)
		}
	}
}

func TestShiftsAndRotate(t *testing.T) {
	c := run(t, `
		li   r1, 0x80000001
		li   r2, 1
		shl  r3, r1, r2
		shr  r4, r1, r2
		ror  r5, r1, r2
		shli r6, r2, 31
		shri r7, r1, 31
		halt
	`, 64, nil)
	if c.Regs[3] != 0x00000002 {
		t.Errorf("shl = %#x", c.Regs[3])
	}
	if c.Regs[4] != 0x40000000 {
		t.Errorf("shr = %#x", c.Regs[4])
	}
	if c.Regs[5] != 0xC0000000 {
		t.Errorf("ror = %#x", c.Regs[5])
	}
	if c.Regs[6] != 0x80000000 {
		t.Errorf("shli = %#x", c.Regs[6])
	}
	if c.Regs[7] != 1 {
		t.Errorf("shri = %#x", c.Regs[7])
	}
}

func TestLi32BitConstants(t *testing.T) {
	c := run(t, `
		li r1, 0xdeadbeef
		li r2, -1
		li r3, 100000
		li r4, 42
		halt
	`, 64, nil)
	if c.Regs[1] != 0xdeadbeef {
		t.Errorf("r1 = %#x", c.Regs[1])
	}
	if c.Regs[2] != 0xffffffff {
		t.Errorf("r2 = %#x", c.Regs[2])
	}
	if c.Regs[3] != 100000 {
		t.Errorf("r3 = %d", c.Regs[3])
	}
	if c.Regs[4] != 42 {
		t.Errorf("r4 = %d", c.Regs[4])
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	c := run(t, `
		li  r0, 123
		add r1, r0, r0
		halt
	`, 64, nil)
	if c.Regs[0] != 0 || c.Regs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d; r0 must stay zero", c.Regs[0], c.Regs[1])
	}
}

func TestLoadsAndStores(t *testing.T) {
	c := run(t, `
		li  r1, 40      ; base address
		li  r2, 0xabcd
		st  r2, r1, 2
		ld  r3, r1, 2
		halt
	`, 64, nil)
	if c.Mem[42] != 0xabcd || c.Regs[3] != 0xabcd {
		t.Errorf("mem[42] = %#x, r3 = %#x", c.Mem[42], c.Regs[3])
	}
}

func TestLoop(t *testing.T) {
	// Sum 1..10 into r2.
	c := run(t, `
		li r1, 10
		li r2, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`, 64, nil)
	if c.Regs[2] != 55 {
		t.Errorf("sum = %d, want 55", c.Regs[2])
	}
}

func TestBranchVariants(t *testing.T) {
	c := run(t, `
		li r1, 3
		li r2, 5
		li r10, 0
		bltu r1, r2, a
		li r10, 99
	a:	bgeu r2, r1, b
		li r10, 98
	b:	beq r1, r1, c
		li r10, 97
	c:	bne r1, r2, done
		li r10, 96
	done:
		halt
	`, 64, nil)
	if c.Regs[10] != 0 {
		t.Errorf("branch fallthrough executed: r10 = %d", c.Regs[10])
	}
}

func TestJalAndJr(t *testing.T) {
	c := run(t, `
		li  r1, 0
		jal r15, sub
		li  r2, 7       ; return lands here
		halt
	sub:
		li  r1, 5
		jr  r15
	`, 64, nil)
	if c.Regs[1] != 5 || c.Regs[2] != 7 {
		t.Errorf("r1 = %d, r2 = %d", c.Regs[1], c.Regs[2])
	}
}

func TestWordAndSpaceDirectives(t *testing.T) {
	p := MustAssemble(`
		jmp start
	data:
		.word 0x1234
		.space 3
		.word data
	start:
		halt
	`)
	if p.Words[1] != 0x1234 {
		t.Errorf("data word = %#x", p.Words[1])
	}
	if p.Words[5] != 1 {
		t.Errorf("label-valued word = %d, want 1", p.Words[5])
	}
	if p.Symbols["start"] != 6 {
		t.Errorf("start = %d", p.Symbols["start"])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"frobnicate r1, r2",   // unknown mnemonic
		"add r1, r2",          // wrong arity
		"add r1, r2, r16",     // bad register
		"addi r1, r2, 999999", // immediate too large
		"andi r1, r2, -1",     // negative logical immediate
		"dup: nop\ndup: nop",  // duplicate label
		"ld r1, r2",           // missing operand
		".space -1",           // bad space
		"beq r1, r2, 999999",  // branch offset range
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("assembled without error: %q", src)
		}
	}
}

func TestFaults(t *testing.T) {
	t.Run("pend outside PUF mode", func(t *testing.T) {
		p := MustAssemble("pend r1\nhalt")
		c := New(p.Words, 1e6, nil)
		c.Run(1000)
		if c.Faulted() == nil {
			t.Error("no fault")
		}
	})
	t.Run("load out of range", func(t *testing.T) {
		p := MustAssemble("li r1, 1000\nld r2, r1, 0\nhalt")
		c := New(p.Words, 1e6, nil)
		c.Run(1000)
		if c.Faulted() == nil {
			t.Error("no fault")
		}
	})
	t.Run("pc escapes memory", func(t *testing.T) {
		p := MustAssemble("nop")
		c := New(p.Words, 1e6, nil)
		c.Run(1000)
		if c.Faulted() == nil {
			t.Error("no fault")
		}
	})
	t.Run("puf mode without port", func(t *testing.T) {
		p := MustAssemble("pstart\nadd r1, r2, r3\nhalt")
		c := New(p.Words, 1e6, nil)
		c.Run(1000)
		if c.Faulted() == nil {
			t.Error("no fault")
		}
	})
	t.Run("cycle budget", func(t *testing.T) {
		p := MustAssemble("loop: jmp loop")
		c := New(p.Words, 1e6, nil)
		if err := c.Run(100); err == nil {
			t.Error("budget exhaustion not reported")
		}
	})
}

func TestCycleAccounting(t *testing.T) {
	c := run(t, `
		add r1, r1, r1   ; 1
		mul r2, r1, r1   ; 3
		ld  r3, r0, 0    ; 2
		halt             ; 1? halt costs its base too
	`, 64, nil)
	// add(1) + mul(3) + ld(2) + halt(1) = 7
	if c.Cycles != 7 {
		t.Errorf("cycles = %d, want 7", c.Cycles)
	}
	if got := c.TimeSeconds(); got != 7/100e6 {
		t.Errorf("TimeSeconds = %v", got)
	}
}

func TestTakenBranchCostsExtra(t *testing.T) {
	pTaken := MustAssemble("beq r0, r0, t\nt: halt")
	cTaken := New(pTaken.Words, 1e6, nil)
	cTaken.Run(100)
	pNot := MustAssemble("bne r0, r0, t\nt: halt")
	cNot := New(pNot.Words, 1e6, nil)
	cNot.Run(100)
	if cTaken.Cycles != cNot.Cycles+1 {
		t.Errorf("taken %d vs not-taken %d cycles", cTaken.Cycles, cNot.Cycles)
	}
}

func pufDevice(t *testing.T) *core.Device {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Width = 16
	return core.MustNewDevice(core.MustNewDesign(cfg), rng.New(3), 0)
}

// pufProgram issues one full PUF() invocation: it first derives the eight
// operand pairs from the seed (in software, via Mix32) into a memory
// buffer, then enters PUF mode where the only add instructions executed are
// the queries themselves (in PUF mode every add stimulates the ALUs, so
// ordinary arithmetic there must avoid add). Halts with z in r5. Seed
// preloaded in r1.
const pufProgram = `
	; r1 = seed, r2 = j counter (0..7), r13 = buffer pointer
	li   r2, 0
	li   r13, 1024
genloop:
	; a = Mix32(seed + ExpandStepA*(2j+1))
	shli r6, r2, 1
	addi r6, r6, 1        ; 2j+1
	li   r7, 0x9e3779b9
	mul  r6, r6, r7
	add  r3, r1, r6
	jal  r15, mix32       ; r3 -> mixed r3
	st   r3, r13, 0
	; b = Mix32((seed^salt) + ExpandStepB*(2j+2))
	shli r6, r2, 1
	addi r6, r6, 2
	li   r7, 0x7f4a7c15
	mul  r6, r6, r7
	li   r9, 0xd192ed03
	xor  r3, r1, r9
	add  r3, r3, r6
	jal  r15, mix32
	st   r3, r13, 1
	addi r13, r13, 2
	addi r2, r2, 1
	li   r6, 8
	bne  r2, r6, genloop

	li   r13, 1024
	li   r2, 0
	pstart
qloop:
	ld   r3, r13, 0
	ld   r4, r13, 1
	add  r10, r3, r4      ; THE add: PUF query with (a, b)
	addi r13, r13, 2
	addi r2, r2, 1
	li   r6, 8
	bne  r2, r6, qloop
	pend r5
	halt

mix32:                    ; r3 = Mix32(r3), clobbers r11
	shri r11, r3, 16
	xor  r3, r3, r11
	li   r11, 0x85ebca6b
	mul  r3, r3, r11
	shri r11, r3, 13
	xor  r3, r3, r11
	li   r11, 0xc2b2ae35
	mul  r3, r3, r11
	shri r11, r3, 16
	xor  r3, r3, r11
	jr   r15
`

func TestPUFModeEndToEnd(t *testing.T) {
	dev := pufDevice(t)
	port := MustNewDevicePort(dev)
	port.SetClock(100e6) // generous 10 ns cycle: reliable
	p := MustAssemble(pufProgram)
	mem := make([]uint32, 4096)
	copy(mem, p.Words)
	c := New(mem, 100e6, port)
	const seed = 0xcafe1234
	c.Regs[1] = seed
	if err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	z := c.Regs[5]
	helpers := port.DrainHelpers()
	if len(helpers) != 8 {
		t.Fatalf("%d helpers, want 8", len(helpers))
	}
	// The verifier recovers the same z from the emulator + helpers: the
	// software-derived operands must match ExpandOperands exactly.
	v := core.MustNewVerifierPipeline(dev.Emulator())
	zv, err := v.Recover(seed, helpers)
	if err != nil {
		t.Fatal(err)
	}
	if uint32(zv) != z {
		t.Fatalf("verifier z %#x != prover z %#x", zv, z)
	}
}

func TestPUFModeFaultsOnWrongQueryCount(t *testing.T) {
	dev := pufDevice(t)
	port := MustNewDevicePort(dev)
	p := MustAssemble(`
		pstart
		add r1, r2, r3
		pend r4
		halt
	`)
	c := New(p.Words, 100e6, port)
	c.Run(1000)
	if c.Faulted() == nil {
		t.Error("pend after one query should fault")
	}
}

func TestPUFModeDoublePstartFaults(t *testing.T) {
	dev := pufDevice(t)
	port := MustNewDevicePort(dev)
	p := MustAssemble("pstart\npstart\nhalt")
	c := New(p.Words, 100e6, port)
	c.Run(1000)
	if c.Faulted() == nil {
		t.Error("double pstart should fault")
	}
}

func TestPUFAddCostsExtraCycles(t *testing.T) {
	dev := pufDevice(t)
	port := MustNewDevicePort(dev)
	port.SetClock(100e6)
	srcPlain := "add r1, r2, r3\nhalt"
	pPlain := MustAssemble(srcPlain)
	cPlain := New(pPlain.Words, 100e6, nil)
	cPlain.Run(1000)

	// One PUF-mode add inside pstart (we fault at pend-less halt, but the
	// cycle cost of the add is still recorded before the halt).
	pPuf := MustAssemble("pstart\nadd r1, r2, r3\nhalt")
	cPuf := New(pPuf.Words, 100e6, port)
	cPuf.Run(1000)
	if cPuf.Cycles <= cPlain.Cycles {
		t.Errorf("PUF-mode add cost %d cycles vs plain %d; expected a surcharge",
			cPuf.Cycles, cPlain.Cycles)
	}
}

func TestOverclockedPortCorruptsResponses(t *testing.T) {
	dev := pufDevice(t)
	port := MustNewDevicePort(dev)
	maxF := port.MaxReliableFreqHz()

	measure := func(freq float64) int {
		port.SetClock(freq)
		port.Begin()
		port.Feed(0x1234, 0x9abc)
		// Compare the (single) raw response underlying the helper against
		// the reliable-clock reference by refeeding at slow clock.
		h1 := append([]uint64(nil), port.helpers...)
		port.helpers = nil
		port.SetClock(maxF * 0.5)
		port.Begin()
		port.Feed(0x1234, 0x9abc)
		h2 := port.helpers
		port.helpers = nil
		if h1[0] == h2[0] {
			return 0
		}
		return 1
	}
	diffFast := 0
	for i := 0; i < 20; i++ {
		diffFast += measure(maxF * 2.0)
	}
	if diffFast < 10 {
		t.Errorf("overclocked helper data matched reliable helper data %d/20 times; expected corruption", 20-diffFast)
	}
}

func TestStats(t *testing.T) {
	// Smoke: responses through the port look PUF-like (not constant).
	dev := pufDevice(t)
	port := MustNewDevicePort(dev)
	port.SetClock(50e6)
	port.Begin()
	seen := map[uint64]bool{}
	for j := 0; j < 8; j++ {
		a, b := dev.Design().ExpandOperands(99, j)
		if _, err := port.Feed(a, b); err != nil {
			t.Fatal(err)
		}
		seen[port.helpers[j]] = true
	}
	z, err := port.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 4 {
		t.Error("helper words suspiciously repetitive")
	}
	if w := stats.HammingDistanceWords(uint64(z), 0); w == 0 || w == 16 {
		t.Logf("z = %#x has extreme weight %d (possible but unusual)", z, w)
	}
}
