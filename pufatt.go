// Package pufatt is a from-scratch Go implementation of PUFatt (Kong,
// Koushanfar, Pendyala, Sadeghi, Wachsmann — DAC 2014): embedded platform
// attestation built on a processor-based physically unclonable function.
//
// The library spans the full system described in the paper:
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
// This root package re-exports the pieces a downstream user needs and
// bundles them into a ready-to-run System. The experiment reproductions
// (Figures 3–4, Table 1, the §4 analyses) live in bench_test.go and
// cmd/pufatt-eval.
package pufatt

import (
	"sync"

	"pufatt/internal/attest"
	"pufatt/internal/core"
	"pufatt/internal/crp"
	"pufatt/internal/delay"
	"pufatt/internal/ecc"
	"pufatt/internal/fpga"
	"pufatt/internal/mcu"
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
	// Model is the exported gate-delay model H of one device.
	Model = core.Model
	// Pipeline is the prover-side PUF(): raw PUF → helper data →
	// obfuscation.
	Pipeline = core.Pipeline
	// VerifierPipeline recomputes PUF() outputs from helper data.
	VerifierPipeline = core.VerifierPipeline
	// Conditions is an operating corner (supply voltage, temperature).
	Conditions = delay.Conditions
)

// Protocol types.
type (
	// Challenge is the verifier's attestation challenge (r0, x0).
	Challenge = attest.Challenge
	// Response is the prover's attestation response with helper data.
	Response = attest.Response
	// Result is an attestation decision.
	Result = attest.Result
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
	// CRPDatabase is the pre-recorded challenge/response verification
	// back-end with single-use replay protection.
	CRPDatabase = crp.Database
	// FPGABoard is one modelled Virtex-5 board with PDL calibration.
	FPGABoard = fpga.Board
)

// DefaultConfig returns the calibrated 32-bit ALU PUF configuration used by
// the paper-reproduction experiments.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultAttestParams returns the attestation checksum configuration used
// by the examples (4096 attested words, 64 PUF-entangled chunks).
func DefaultAttestParams() AttestParams { return swatt.DefaultParams() }

// NewDesign creates an ALU PUF design.
func NewDesign(cfg Config) (*Design, error) { return core.NewDesign(cfg) }

// NewDevice manufactures chip chipID of a design; the same (seed, chipID)
// pair always yields the same physical chip.
func NewDevice(d *Design, seed uint64, chipID int) (*Device, error) {
	return core.NewDevice(d, rng.New(seed), chipID)
}

// NewPipeline composes the full prover-side PUF() over a device.
func NewPipeline(dev *Device) (*Pipeline, error) { return core.NewPipeline(dev) }

// NewVerifierPipeline composes the verifier-side PUF() recovery over an
// emulator (or any reference source such as a CRP database).
func NewVerifierPipeline(src core.ReferenceSource) (*VerifierPipeline, error) {
	return core.NewVerifierPipelineFrom(src)
}

// EnrollCRPs records a single-use CRP database for a device.
func EnrollCRPs(dev *Device, seeds []uint64) (*CRPDatabase, error) {
	return crp.Enroll(dev, seeds)
}

// Nominal returns the nominal operating corner.
func Nominal() Conditions { return delay.Nominal() }

// DefaultLink returns the sensor-node-class link model (2 ms, 250 kbit/s).
func DefaultLink() Link { return attest.DefaultLink() }

// RunSession executes one attestation round trip on the simulated clock.
func RunSession(v *Verifier, agent attest.ProverAgent, link Link) (Result, error) {
	return attest.RunSession(v, agent, link)
}

// Options configures a complete demonstration System.
type Options struct {
	// PUF is the ALU PUF design configuration; zero value → DefaultConfig.
	PUF Config
	// Attest is the checksum configuration; zero value →
	// DefaultAttestParams.
	Attest AttestParams
	// Payload is the software state S to attest (placed after the
	// generated program in the attested region).
	Payload []uint32
	// Seed determinises manufacturing and noise; ChipID selects the die.
	Seed   uint64
	ChipID int
	// UseCRPDatabase bounds the verifier by a pre-enrolled CRP database
	// with the given capacity: every session claims one enrolled seed as
	// its challenge perturbation, and a session past the last seed fails
	// as exhausted. The checksum still verifies against the emulation
	// model, because it derives its PUF seeds from its running state.
	UseCRPDatabase int
}

// System is a fully wired prover/verifier pair over one device: the
// quickest way to run PUFatt end to end.
type System struct {
	Design   *Design
	Device   *Device
	Port     *mcu.DevicePort
	Image    *Image
	Prover   *Prover
	Verifier *Verifier
	// DB is non-nil when a CRP database bounds the verifier's sessions.
	DB *CRPDatabase
}

// NewSystem builds a complete attestation stack.
func NewSystem(opt Options) (*System, error) {
	if opt.PUF == (Config{}) {
		opt.PUF = DefaultConfig()
	}
	if opt.Attest == (AttestParams{}) {
		opt.Attest = DefaultAttestParams()
	}
	design, err := sharedDesign(opt.PUF)
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
	var db *crp.Database
	if opt.UseCRPDatabase > 0 {
		seeds := make([]uint64, opt.UseCRPDatabase)
		seedSrc := rng.New(opt.Seed).Sub("crp-enrollment")
		for i := range seeds {
			seeds[i] = seedSrc.Uint64()
		}
		db, err = crp.Enroll(dev, seeds)
		if err != nil {
			return nil, err
		}
		verifier.WithSeedBudget(db)
	}
	return &System{
		Design:   design,
		Device:   dev,
		Port:     prover.Port,
		Image:    image,
		Prover:   prover,
		Verifier: verifier,
		DB:       db,
	}, nil
}

// lastDesign is the design NewSystem built last. A Design is read-only once
// built and a pure function of its Config, so the systems of a fleet built
// node by node share one instead of compiling the netlist per node; one
// entry bounds what the memo retains.
var lastDesign struct {
	sync.Mutex
	cfg    Config
	design *core.Design
}

// sharedDesign returns the design for cfg, reusing lastDesign's on a match.
func sharedDesign(cfg Config) (*core.Design, error) {
	lastDesign.Lock()
	defer lastDesign.Unlock()
	if lastDesign.design == nil || lastDesign.cfg != cfg {
		d, err := core.NewDesign(cfg)
		if err != nil {
			return nil, err
		}
		lastDesign.cfg, lastDesign.design = cfg, d
	}
	return lastDesign.design, nil
}

// Attest runs one attestation session over the given link (zero value →
// DefaultLink).
func (s *System) Attest(link Link) (Result, error) {
	if link == (Link{}) {
		link = DefaultLink()
	}
	s.Verifier.AllowNetwork(link)
	return attest.RunSession(s.Verifier, s.Prover, link)
}

// QueryPUF runs one standalone PUF() invocation on the system's device and
// verifies it through the configured reference source, returning the
// obfuscated output and whether verification succeeded.
func (s *System) QueryPUF(seed uint64) (z []uint8, verified bool, err error) {
	pl, err := core.NewPipeline(s.Device)
	if err != nil {
		return nil, false, err
	}
	out, err := pl.Query(seed)
	if err != nil {
		return nil, false, err
	}
	vp, err := core.NewVerifierPipelineFrom(s.Device.Emulator())
	if err != nil {
		return nil, false, err
	}
	rec, err := vp.Recover(seed, out.Helpers)
	return out.Z, err == nil && rec == out.ZWord(), nil
}

// Mix32 is the public challenge-expansion finaliser shared by software and
// hardware (exported for interoperating implementations).
func Mix32(x uint32) uint32 { return core.Mix32(x) }

// ZWord packs an obfuscated output's bits into a word.
func ZWord(z []uint8) uint64 { return ecc.BitsToWord(z) }
