package mcu

import (
	"errors"
	"fmt"

	"pufatt/internal/core"
	"pufatt/internal/ecc"
	"pufatt/internal/obfuscate"
	"pufatt/internal/rng"
)

// DevicePort couples a simulated ALU PUF device to the CPU's PUF-mode
// instructions, implementing the paper's post-processing chain in
// "hardware": temporal majority voting, the syndrome generator (helper
// data), and the XOR obfuscation network. Raw responses and network
// internals never reach software; only z (via pend) and the helper-data
// FIFO (drained by the device's communication stack, DrainHelpers) escape.
//
// The port latches PUF responses on the CPU clock: the race window per
// query is one CPU cycle minus the register setup time, so overclocking the
// CPU past the datapath's settling time corrupts responses exactly as
// Section 4.2 describes.
//
// Two corruption mechanisms compose. Per-challenge, bits whose races have
// not resolved by the latch deadline resolve randomly (core.Device's
// ClockedResponse). On top of that, the port implements the paper's
// worst-case condition T_ALU + T_set < T_cycle with a matched-delay timing
// monitor: the response registers' latch enable is gated by a delay line
// replicating the datapath's critical path, so when the cycle undercuts the
// static worst case the enable itself misfires and every bit latches from a
// metastable arbiter. This is the hardware realisation of "the base clock
// frequency must be carefully chosen so that any attempt to increase the
// clock ... results in wrong PUF responses".
type DevicePort struct {
	dev    *core.Device
	sketch *ecc.Sketch
	net    *obfuscate.Network
	// Votes is the temporal majority-voting factor per query (odd).
	Votes int
	// SetupPs is the response register setup time T_set.
	SetupPs float64
	// CyclePs is the clock period T_cycle driving the PUF latch; wire it
	// to the CPU clock via SetClock.
	CyclePs float64

	active  bool
	count   int
	y       []uint8 // the query being voted, packed into words once latched
	words   [obfuscate.ResponsesPerOutput]uint64
	helpers []uint64
	z       uint32
	meta    *rng.Source // metastable latch resolution under the monitor
}

// NewDevicePort builds a port over a device. The device's response width
// must have a sketch instance (16 or 32 bits).
func NewDevicePort(dev *core.Device) (*DevicePort, error) {
	bits := dev.Design().ResponseBits()
	code, err := ecc.ForResponseWidth(bits)
	if err != nil {
		return nil, fmt.Errorf("mcu: %w", err)
	}
	if bits > 32 {
		return nil, fmt.Errorf("mcu: %d-bit responses exceed the 32-bit pend register", bits)
	}
	return &DevicePort{
		dev:     dev,
		sketch:  ecc.NewSketch(code),
		net:     obfuscate.MustNew(bits),
		y:       make([]uint8, bits),
		Votes:   5,
		SetupPs: 20,
		CyclePs: 2000,
		meta:    rng.New(0x19e7a57ab1e ^ uint64(dev.ChipID())),
	}, nil
}

// MustNewDevicePort is NewDevicePort that panics on error.
func MustNewDevicePort(dev *core.Device) *DevicePort {
	p, err := NewDevicePort(dev)
	if err != nil {
		panic(err)
	}
	return p
}

// Device returns the underlying PUF device.
func (p *DevicePort) Device() *core.Device { return p.dev }

// SetClock derives the PUF latch period from a CPU frequency in hertz.
func (p *DevicePort) SetClock(freqHz float64) {
	p.CyclePs = 1e12 / freqHz
}

// MaxReliableFreqHz returns the highest CPU frequency at which the
// PUF datapath still settles within a cycle (critical path + setup), i.e.
// the boundary frequency F_{ALU+set} of Section 4.2.
func (p *DevicePort) MaxReliableFreqHz() float64 {
	return 1e12 / (p.dev.CriticalPathPs() + p.SetupPs)
}

// Begin implements PUFPort.
func (p *DevicePort) Begin() {
	p.active = true
	p.count = 0
}

// Feed implements PUFPort: one add-in-PUF-mode query.
func (p *DevicePort) Feed(a, b uint32) (uint64, error) {
	if !p.active {
		return 0, errors.New("mcu: PUF feed before pstart")
	}
	if p.count >= obfuscate.ResponsesPerOutput {
		return 0, fmt.Errorf("mcu: more than %d PUF queries before pend", obfuscate.ResponsesPerOutput)
	}
	ch := p.dev.Design().ChallengeFromOperands(uint64(a), uint64(b))
	y := p.y
	if p.CyclePs < p.dev.CriticalPathPs()+p.SetupPs {
		// Worst-case timing monitor violated: the latch enable misfires
		// and all bits sample metastable arbiters.
		p.meta.Bits(y)
	} else {
		var buf [32]int // NewDevicePort caps responses at 32 bits
		counts := buf[:len(y)]
		for v := 0; v < p.Votes; v++ {
			r, _ := p.dev.ClockedResponse(ch, p.CyclePs, p.SetupPs)
			for i, bit := range r {
				counts[i] += int(bit)
			}
		}
		for i, ccount := range counts {
			y[i] = 0
			if 2*ccount > p.Votes {
				y[i] = 1
			}
		}
	}
	h, err := p.sketch.Generate(y)
	if err != nil {
		return 0, err
	}
	p.helpers = append(p.helpers, h)
	p.words[p.count] = ecc.BitsToWord(y)
	p.count++
	// Each vote occupies one clock of the race plus one latch cycle.
	return uint64(p.Votes) + 1, nil
}

// Finish implements PUFPort.
func (p *DevicePort) Finish() (uint32, error) {
	if !p.active {
		return 0, errors.New("mcu: pend before pstart")
	}
	if p.count != obfuscate.ResponsesPerOutput {
		return 0, fmt.Errorf("mcu: pend after %d queries, need %d", p.count, obfuscate.ResponsesPerOutput)
	}
	p.active = false
	p.z = uint32(p.net.ApplyWords(&p.words))
	return p.z, nil
}

// StubPort is a PUFPort with the same cycle behaviour as a DevicePort but
// no PUF: Feed costs Votes+1 cycles and Finish returns zero. It exists so
// the verifier can dry-run a program for its cycle count without a device
// (attestation programs have data-independent control flow).
type StubPort struct {
	Votes int
	count int
}

// Begin implements PUFPort.
func (s *StubPort) Begin() { s.count = 0 }

// Feed implements PUFPort.
func (s *StubPort) Feed(a, b uint32) (uint64, error) {
	if s.count >= 8 {
		return 0, errors.New("mcu: stub port overfed")
	}
	s.count++
	return uint64(s.Votes) + 1, nil
}

// Finish implements PUFPort.
func (s *StubPort) Finish() (uint32, error) {
	if s.count != 8 {
		return 0, fmt.Errorf("mcu: stub pend after %d queries", s.count)
	}
	s.count = 0
	return 0, nil
}

// DrainHelpers returns and clears the helper-data FIFO. The prover's
// communication stack calls this to ship helper data to the verifier; the
// attested software itself has no instruction that can reach it.
func (p *DevicePort) DrainHelpers() []uint64 {
	h := p.helpers
	p.helpers = nil
	return h
}
