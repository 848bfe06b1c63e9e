// Package pufatt is a from-scratch Go implementation of PUFatt (Kong,
// Koushanfar, Pendyala, Sadeghi, Wachsmann — DAC 2014): embedded platform
// attestation built on a processor-based physically unclonable function.
//
// The module's internal packages implement the system the paper describes:
//
//   - The ALU PUF: two redundant ripple-carry ALUs raced against each other
//     at gate level, under a 45 nm delay model with quad-tree process
//     variation (core, netlist, delay, variation, sim).
//   - The PUF() pipeline: syndrome-based helper data over the (32,6,16)
//     Reed–Muller code and the two-phase XOR obfuscation network
//     (ecc, bch, gf2, obfuscate).
//   - The prover platform: a cycle-accurate 32-bit MCU with the pstart/pend
//     ISA extension and an assembler (mcu), running a generated SWATT-style
//     attestation checksum entangled with the PUF (swatt).
//   - The remote attestation protocol with time-bound enforcement and both
//     verification back-ends: PUF emulation from the gate-delay model H and
//     single-use CRP databases (attest, crp).
//   - The paper's adversaries, runnable against the real stack: memory-copy
//     forgery, overclocking, PUF-oracle proxying, and machine-learning
//     modeling (attacks).
//   - The FPGA prototype artifacts: programmable delay lines, bias
//     calibration, Virtex-5 resource estimation, SIRC-style collection
//     (fpga).
//
// This root package is the surface the example programs share, and no
// more. Its centre is System: one enrolled prover/verifier pair over one
// device, built by NewSystem. The other exports are the constructors and
// types the examples name. An export stays only while an example names it
// or a kept export's signature uses it; TestEveryRootExportHasAConsumer
// pins that. The commands and the remaining examples use the internal
// packages directly. The experiment reproductions (Figures 3–4, Table 1,
// the §4 analyses) live in bench_test.go and cmd/pufatt-eval.
package pufatt

import (
	"sync"

	"pufatt/internal/attest"
	"pufatt/internal/core"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

// Core PUF types.
type (
	// Config parameterises an ALU PUF design (widths, noise, variation).
	Config = core.Config
	// Design is a microprocessor design embedding the two-ALU PUF.
	Design = core.Design
	// Device is one manufactured chip of a Design.
	Device = core.Device
	// Emulator is the verifier-side PUF.Emulate() over the model H.
	Emulator = core.Emulator
)

// Protocol types.
type (
	// Link models the prover's constrained communication interface.
	Link = attest.Link
	// Prover is the honest embedded device agent.
	Prover = attest.Prover
	// Verifier enforces the time bound and recomputes the response.
	Verifier = attest.Verifier
	// AttestParams configures the SWATT-style checksum.
	AttestParams = swatt.Params
	// Image is an assembled prover memory image.
	Image = swatt.Image
)

// DefaultConfig returns the calibrated 32-bit ALU PUF configuration used by
// the paper-reproduction experiments.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewDesign creates an ALU PUF design.
func NewDesign(cfg Config) (*Design, error) { return core.NewDesign(cfg) }

// NewDevice manufactures chip chipID of a design; the same (seed, chipID)
// pair always yields the same physical chip.
func NewDevice(d *Design, seed uint64, chipID int) (*Device, error) {
	return core.NewDevice(d, rng.New(seed), chipID)
}

// DefaultLink returns the sensor-node-class link model (2 ms, 250 kbit/s).
func DefaultLink() Link { return attest.DefaultLink() }

// Options configures a System.
type Options struct {
	// Attest is the checksum configuration; zero value → the default
	// parameters (4096 attested words, 64 PUF-entangled chunks).
	Attest AttestParams
	// Payload is the software state S to attest (placed after the
	// generated program in the attested region).
	Payload []uint32
	// Seed determinises manufacturing and noise; ChipID selects the die.
	Seed   uint64
	ChipID int
}

// System is one enrolled prover/verifier pair over one device of the
// default design.
type System struct {
	Design   *Design
	Device   *Device
	Image    *Image
	Prover   *Prover
	Verifier *Verifier
}

// NewSystem builds a complete attestation stack.
func NewSystem(opt Options) (*System, error) {
	if opt.Attest == (AttestParams{}) {
		opt.Attest = swatt.DefaultParams()
	}
	design, err := defaultDesign()
	if err != nil {
		return nil, err
	}
	dev, err := core.NewDevice(design, rng.New(opt.Seed), opt.ChipID)
	if err != nil {
		return nil, err
	}
	image, err := swatt.BuildImage(opt.Attest, opt.Payload)
	if err != nil {
		return nil, err
	}
	prover, verifier, err := attest.NewPair(dev, image)
	if err != nil {
		return nil, err
	}
	return &System{
		Design:   design,
		Device:   dev,
		Image:    image,
		Prover:   prover,
		Verifier: verifier,
	}, nil
}

// defaultDesign is the design every System runs on. A Design is read-only
// once built, so the systems of a fleet built node by node share one
// instead of compiling the netlist per node.
var defaultDesign = sync.OnceValues(func() (*core.Design, error) {
	return core.NewDesign(core.DefaultConfig())
})

// QueryPUF runs one standalone PUF() invocation on the system's device and
// recovers it from the helper data alone through the device's emulation
// model H. It returns the obfuscated output z as a word and whether the
// recovery reproduced it.
func (s *System) QueryPUF(seed uint64) (z uint64, verified bool, err error) {
	pl, err := core.NewPipeline(s.Device)
	if err != nil {
		return 0, false, err
	}
	out, err := pl.Query(seed)
	if err != nil {
		return 0, false, err
	}
	vp, err := core.NewVerifierPipelineFrom(s.Device.Emulator())
	if err != nil {
		return 0, false, err
	}
	z = out.ZWord()
	rec, err := vp.Recover(seed, out.Helpers)
	return z, err == nil && rec == z, nil
}

// Mix32 is the public challenge-expansion finaliser shared by software and
// hardware (exported for interoperating implementations).
func Mix32(x uint32) uint32 { return core.Mix32(x) }
