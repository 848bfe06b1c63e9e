package core

import (
	"fmt"
	"math"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
)

// Silicon aging support. Delay-based PUFs drift as transistors age (BTI/HCI
// raise threshold voltages over months of operation), which erodes the
// enrolled reference. The paper cites its companion work (Kong &
// Koushanfar, IEEE TETC 2013) on turning this around: *directed* aging —
// stressing only the ALU that currently wins each arbiter — pushes the
// arrival-time differences away from zero and makes weak response bits
// reliable. Both effects are modelled here: Age applies uniform wear,
// ReinforcementAge applies the directed burn-in.

// AgingParams parameterises the threshold-voltage drift model
// ΔVth(t) = Scale · (t/1000 h)^Exponent, with per-gate variability.
type AgingParams struct {
	// ScaleV is the mean Vth shift after 1000 hours of full stress (V).
	ScaleV float64
	// Exponent is the time power law (BTI: ~0.15–0.25).
	Exponent float64
	// Variability is the relative per-gate spread of the shift.
	Variability float64
}

// DefaultAgingParams returns a 45 nm BTI-like drift model: 30 mV per 1000 h
// of continuous stress, t^0.2, ±20 % per gate.
func DefaultAgingParams() AgingParams {
	return AgingParams{ScaleV: 0.030, Exponent: 0.2, Variability: 0.2}
}

// shift returns the mean Vth increase for the given effective stress hours.
func (p AgingParams) shift(hours float64) float64 {
	if hours <= 0 {
		return 0
	}
	return p.ScaleV * math.Pow(hours/1000, p.Exponent)
}

// Age applies uniform wear to every logic gate of the device: hours of
// operation at the given activity duty cycle (0..1). Each call models a
// fresh stress interval from the device's current state; the enrolled
// emulation model does NOT follow (re-export after aging to re-enroll).
func (dev *Device) Age(hours, duty float64) {
	if hours < 0 || duty < 0 || duty > 1 {
		panic(fmt.Sprintf("core: Age(hours=%g, duty=%g) out of range", hours, duty))
	}
	p := DefaultAgingParams()
	base := p.shift(hours * duty)
	dev.ensureAging()
	src := dev.agingSrc
	nl := dev.design.datapath.Net
	for g := range nl.Gates {
		switch nl.Gates[g].Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		s := base * (1 + p.Variability*src.Norm())
		if s < 0 {
			s = 0
		}
		dev.agingVth[g] += s
	}
	dev.reloadTables()
}

// ReinforcementAge applies the directed-aging response tuning of [13]: for
// each response bit, the ALU currently *losing* the race less often (the
// one whose output tends to arrive later) is stressed along that bit's
// logic cone, enlarging the arrival-time difference and hardening the bit
// against metastability flips. sampleChallenges sets how many random
// challenges estimate each bit's polarity.
func (dev *Device) ReinforcementAge(hours float64, sampleChallenges int) {
	if hours < 0 {
		panic(fmt.Sprintf("core: ReinforcementAge(hours=%g)", hours))
	}
	dev.ensureAging()
	p := DefaultAgingParams()
	base := p.shift(hours)
	// Estimate per-bit polarity from noiseless responses.
	bits := dev.design.ResponseBits()
	ones := make([]int, bits)
	src := dev.agingSrc.Sub("reinforce/challenges")
	for k := 0; k < sampleChallenges; k++ {
		r := dev.NoiselessResponse(dev.design.ExpandChallenge(src.Uint64(), 0))
		for i, bit := range r {
			ones[i] += int(bit)
		}
	}
	noise := dev.agingSrc.Sub("reinforce/noise")
	for i := 0; i < bits; i++ {
		a0, a1 := dev.design.pair0[i], dev.design.pair1[i]
		// Bit mostly 1 ⇒ ALU0 usually first (Δ = t1 − t0 > 0): stress
		// ALU1's cone so t1 grows and Δ widens. Otherwise stress ALU0.
		target := a1
		if 2*ones[i] < sampleChallenges {
			target = a0
		}
		for _, g := range dev.coneOf(target) {
			s := base * (1 + p.Variability*noise.Norm())
			if s < 0 {
				s = 0
			}
			dev.agingVth[g] += s
		}
	}
	dev.reloadTables()
}

// AgingVth returns the accumulated per-gate aging shifts (nil before any
// aging).
func (dev *Device) AgingVth() []float64 { return dev.agingVth }

func (dev *Device) ensureAging() {
	if dev.agingVth == nil {
		dev.agingVth = make([]float64, len(dev.design.datapath.Net.Gates))
	}
	if dev.agingSrc == nil {
		dev.agingSrc = dev.noise.SubN("aging", dev.chipID)
	}
}

// reloadTables drops every cached delay table (they embed the pre-aging
// offsets) and rebuilds the current corner.
func (dev *Device) reloadTables() {
	dev.tables = make(map[delay.Conditions]delay.Table)
	dev.SetConditions(dev.cond)
}

// effectiveVth returns process variation plus accumulated aging plus the
// current epoch's reconfiguration overlay (epoch.go).
func (dev *Device) effectiveVth() []float64 {
	if dev.agingVth == nil && dev.epochVth == nil {
		return dev.dVth
	}
	out := make([]float64, len(dev.dVth))
	for i := range out {
		out[i] = dev.dVth[i]
		if dev.agingVth != nil {
			out[i] += dev.agingVth[i]
		}
		if dev.epochVth != nil {
			out[i] += dev.epochVth[i]
		}
	}
	return out
}

// coneOf returns the gate indices of the transitive fanin cone of net
// (excluding inputs/constants), memoised per device.
func (dev *Device) coneOf(net int) []int {
	if dev.cones == nil {
		dev.cones = make(map[int][]int)
	}
	if c, ok := dev.cones[net]; ok {
		return c
	}
	nl := dev.design.datapath.Net
	seen := make(map[int]bool)
	var cone []int
	var walk func(g int)
	walk = func(g int) {
		if seen[g] {
			return
		}
		seen[g] = true
		switch nl.Gates[g].Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
			return
		}
		cone = append(cone, g)
		for _, f := range nl.Gates[g].Fanin {
			walk(f)
		}
	}
	walk(net)
	dev.cones[net] = cone
	return cone
}
