package core

import (
	"fmt"

	"pufatt/internal/delay"
	"pufatt/internal/sim"
)

// Model is the emulation model H of one device: the per-gate nominal delay
// table plus the design skew. Whoever holds it can predict the device's
// noiseless responses — it is the verifier's secret (Section 2: "a
// protected interface to read out the gate-level delays ... only accessible
// by a trusted entity").
type Model struct {
	Width    int
	UseCarry bool
	ChipID   int
	Table    delay.Table
	SkewPs   []float64
}

// Emulator implements PUF.Emulate(): noiseless nominal-corner evaluation of
// a device from its model H. It is deterministic; an Emulator is not safe
// for concurrent use (it owns a simulation engine).
type Emulator struct {
	design *Design
	model  *Model
	engine *sim.Engine
	inBuf  []uint8
	refBuf []uint8 // ReferenceResponse's result, see its aliasing contract
}

// NewEmulator builds an emulator for a device of the given design from its
// exported model.
func NewEmulator(d *Design, m *Model) *Emulator {
	if m.Width != d.cfg.Width || m.UseCarry != d.cfg.UseCarry {
		panic(fmt.Sprintf("core: model (width %d, carry %v) does not match design (width %d, carry %v)",
			m.Width, m.UseCarry, d.cfg.Width, d.cfg.UseCarry))
	}
	if len(m.Table.Ps) != len(d.datapath.Net.Gates) {
		panic(fmt.Sprintf("core: model delay table has %d entries, netlist has %d gates",
			len(m.Table.Ps), len(d.datapath.Net.Gates)))
	}
	return &Emulator{
		design: d,
		model:  m,
		engine: sim.NewEngine(d.datapath.Net, m.Table),
		inBuf:  make([]uint8, 2*d.cfg.Width),
		refBuf: make([]uint8, d.ResponseBits()),
	}
}

// Design returns the emulator's design.
func (e *Emulator) Design() *Design { return e.design }

// ChipID returns the chip the model was extracted from.
func (e *Emulator) ChipID() int { return e.model.ChipID }

// Respond returns the emulated noiseless response to the challenge.
func (e *Emulator) Respond(challenge []uint8) []uint8 {
	if len(challenge) != 2*e.design.cfg.Width {
		panic(fmt.Sprintf("core: challenge of %d bits, want %d", len(challenge), 2*e.design.cfg.Width))
	}
	copy(e.inBuf, challenge)
	return e.respond(make([]uint8, e.design.ResponseBits()))
}

// ReferenceResponse implements ReferenceSource by emulating the device: the
// j-th expansion of the seed, evaluated like Respond.
//
// Aliasing contract: the returned slice is emulator-owned, overwritten in
// place by the next ReferenceResponse call — read it before the next
// lookup and never retain or modify it (Respond returns fresh storage).
// TestReferenceResponseAliasingContract enforces this.
func (e *Emulator) ReferenceResponse(seed uint64, j int) ([]uint8, error) {
	e.design.ExpandChallengeInto(e.inBuf, seed, j)
	return e.respond(e.refBuf), nil
}

// ResponseBits implements ReferenceSource.
func (e *Emulator) ResponseBits() int { return e.design.ResponseBits() }

// respond evaluates the challenge in inBuf into out: bit i is 1 when ALU 0
// settles first.
func (e *Emulator) respond(out []uint8) []uint8 {
	_, arr := e.engine.Run(e.inBuf)
	p0, p1, skew := e.design.pair0, e.design.pair1, e.model.SkewPs
	for i := range out {
		if arr[p1[i]]+skew[i]-arr[p0[i]] > 0 {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
	return out
}
