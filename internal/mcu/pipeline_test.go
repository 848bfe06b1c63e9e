package mcu

import (
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/rng"
)

func runPipelined(t *testing.T, src string, pipelined bool) *CPU {
	t.Helper()
	p := MustAssemble(src)
	mem := make([]uint32, 256)
	copy(mem, p.Words)
	c := New(mem, 1e8, nil)
	c.Pipelined = pipelined
	if err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPipelinedFunctionallyIdentical(t *testing.T) {
	src := `
		li r1, 10
		li r2, 0
	loop:
		add  r2, r2, r1
		st   r2, r0, 100
		ld   r3, r0, 100
		xor  r4, r3, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`
	a := runPipelined(t, src, false)
	b := runPipelined(t, src, true)
	if a.Regs != b.Regs {
		t.Errorf("pipelined mode changed results:\n%v\n%v", a.Regs, b.Regs)
	}
	if a.Cycles == b.Cycles {
		t.Error("pipelined mode should change cycle accounting for this mix")
	}
}

func TestLoadUseInterlock(t *testing.T) {
	// ld followed by a dependent op costs one extra cycle; an independent
	// op does not.
	dependent := runPipelined(t, "ld r1, r0, 50\nadd r2, r1, r1\nhalt", true)
	independent := runPipelined(t, "ld r1, r0, 50\nadd r2, r3, r3\nhalt", true)
	if dependent.Cycles != independent.Cycles+1 {
		t.Errorf("load-use stall missing: dependent %d vs independent %d",
			dependent.Cycles, independent.Cycles)
	}
}

func TestLoadUseStoreDataHazard(t *testing.T) {
	// st reads its data register: ld then st of the same register stalls.
	hazard := runPipelined(t, "ld r1, r0, 50\nst r1, r0, 60\nhalt", true)
	clean := runPipelined(t, "ld r1, r0, 50\nst r2, r0, 60\nhalt", true)
	if hazard.Cycles != clean.Cycles+1 {
		t.Errorf("store-data hazard missing: %d vs %d", hazard.Cycles, clean.Cycles)
	}
}

func TestTakenBranchFlushCostsTwo(t *testing.T) {
	taken := runPipelined(t, "beq r0, r0, t\nt: halt", true)
	notTaken := runPipelined(t, "bne r0, r0, t\nt: halt", true)
	if taken.Cycles != notTaken.Cycles+2 {
		t.Errorf("taken-branch flush: %d vs %d", taken.Cycles, notTaken.Cycles)
	}
}

func TestPipelinedLoadIsSingleCycleWhenIndependent(t *testing.T) {
	// In the pipelined model a load without a dependent consumer is CPI 1
	// (the non-pipelined model charges 2).
	pipe := runPipelined(t, "ld r1, r0, 50\nnop\nhalt", true)
	flat := runPipelined(t, "ld r1, r0, 50\nnop\nhalt", false)
	if pipe.Cycles >= flat.Cycles {
		t.Errorf("pipelined load not cheaper: %d vs %d", pipe.Cycles, flat.Cycles)
	}
}

func TestPipelinedAttestationStillVerifies(t *testing.T) {
	// The checksum must verify regardless of the timing model (cycle
	// counts differ; values must not).
	cfg := core.DefaultConfig()
	cfg.Width = 16
	dev := core.MustNewDevice(core.MustNewDesign(cfg), rng.New(110), 0)
	port := MustNewDevicePort(dev)
	port.SetClock(50e6)
	p := MustAssemble(pufProgram)
	mem := make([]uint32, 4096)
	copy(mem, p.Words)
	c := New(mem, 50e6, port)
	c.Pipelined = true
	c.Regs[1] = 0xcafe1234
	if err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	v := core.MustNewVerifierPipeline(dev.Emulator())
	zv, err := v.Recover(0xcafe1234, port.DrainHelpers())
	if err != nil {
		t.Fatal(err)
	}
	if want := uint32(zv); c.Regs[5] != want {
		t.Errorf("pipelined PUF run: z %#x, verifier %#x", c.Regs[5], want)
	}
}
