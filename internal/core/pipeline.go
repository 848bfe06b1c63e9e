package core

import (
	"fmt"

	"pufatt/internal/ecc"
	"pufatt/internal/obfuscate"
)

// Output is the result of one PUF() invocation: the obfuscated response z
// and the helper data for each of the eight raw responses consumed, in
// order. Helper data is public by construction of the secure sketch; z is
// the value entangled into the attestation checksum.
type Output struct {
	Z       []uint8
	Helpers []uint64
}

// ZWord returns z packed into a uint64 (low bit = z[0]).
func (o *Output) ZWord() uint64 { return ecc.BitsToWord(o.Z) }

// Pipeline is the prover-side PUF() of the paper: raw ALU PUF measurement,
// syndrome (helper data) generation, and the XOR obfuscation network,
// composed per Section 2. One Query consumes eight raw responses derived
// from a single challenge seed.
type Pipeline struct {
	dev    *Device
	sketch *ecc.Sketch
	net    *obfuscate.Network
	// Votes is the temporal majority-voting factor applied to each raw
	// measurement before helper-data generation (odd; 1 disables voting).
	// The default of 5 drives the per-bit error from ~11 % to ~1.2 %, which
	// together with maximum-likelihood sketch recovery reaches the paper's
	// claimed PUF() reliability (see EXPERIMENTS.md, Figure 4 row).
	Votes int
}

// NewPipeline composes the full PUF() over a device. The device's response
// width must be 16 or 32 bits (the Reed–Muller sketch instances).
func NewPipeline(dev *Device) (*Pipeline, error) {
	bits := dev.design.ResponseBits()
	code, err := ecc.ForResponseWidth(bits)
	if err != nil {
		return nil, fmt.Errorf("core: pipeline unavailable: %w", err)
	}
	return &Pipeline{
		dev:    dev,
		sketch: ecc.NewSketch(code),
		net:    obfuscate.MustNew(bits),
		Votes:  5,
	}, nil
}

// MustNewPipeline is NewPipeline that panics on error.
func MustNewPipeline(dev *Device) *Pipeline {
	p, err := NewPipeline(dev)
	if err != nil {
		panic(err)
	}
	return p
}

// Device returns the underlying device.
func (p *Pipeline) Device() *Device { return p.dev }

// ResponseBits returns the width of z.
func (p *Pipeline) ResponseBits() int { return p.dev.design.ResponseBits() }

// Query runs one full PUF() invocation for the challenge seed.
func (p *Pipeline) Query(seed uint64) (*Output, error) {
	var ys [obfuscate.ResponsesPerOutput]uint64
	helpers := make([]uint64, len(ys))
	for j := range ys {
		ch := p.dev.design.ExpandChallenge(seed, j)
		y := p.dev.MajorityResponse(ch, p.Votes)
		h, err := p.sketch.Generate(y)
		if err != nil {
			return nil, err
		}
		ys[j], helpers[j] = ecc.BitsToWord(y), h
	}
	z := ecc.WordToBits(p.net.ApplyWords(&ys), p.ResponseBits())
	return &Output{Z: z, Helpers: helpers}, nil
}

// ReferenceSource supplies the verifier's reference raw responses for a
// challenge seed: either PUF emulation from the model H (Emulator) or a
// pre-recorded CRP database (package crp). Section 2 discusses both
// verification approaches.
type ReferenceSource interface {
	// ReferenceResponse returns the expected noiseless raw response for
	// the j-th expanded challenge of the seed. The slice may be
	// source-owned scratch that the next call overwrites (the Emulator's
	// is): callers read it before the next lookup and never retain or
	// modify it.
	ReferenceResponse(seed uint64, j int) ([]uint8, error)
	// ResponseBits returns the raw-response width.
	ResponseBits() int
}

// VerifierPipeline is the verifier-side counterpart: it recomputes z from a
// reference source (emulation model or CRP database) and the prover's
// helper data, per the reverse fuzzy-extractor flow.
type VerifierPipeline struct {
	src    ReferenceSource
	sketch *ecc.Sketch
	net    *obfuscate.Network
}

// NewVerifierPipeline composes the verifier's PUF() emulation.
func NewVerifierPipeline(em *Emulator) (*VerifierPipeline, error) {
	return NewVerifierPipelineFrom(em)
}

// NewVerifierPipelineFrom composes the verifier's PUF() recovery over an
// arbitrary reference source.
func NewVerifierPipelineFrom(src ReferenceSource) (*VerifierPipeline, error) {
	bits := src.ResponseBits()
	code, err := ecc.ForResponseWidth(bits)
	if err != nil {
		return nil, fmt.Errorf("core: verifier pipeline unavailable: %w", err)
	}
	return &VerifierPipeline{
		src:    src,
		sketch: ecc.NewSketch(code),
		net:    obfuscate.MustNew(bits),
	}, nil
}

// MustNewVerifierPipeline is NewVerifierPipeline that panics on error.
func MustNewVerifierPipeline(em *Emulator) *VerifierPipeline {
	v, err := NewVerifierPipeline(em)
	if err != nil {
		panic(err)
	}
	return v
}

// Recover reconstructs z, packed as a word (bit i = z[i], see
// Output.ZWord), for the challenge seed from the helper data the prover
// produced. Each reference response is read once, packed and recovered
// before the next lookup, so a source's scratch buffer suffices; over an
// Emulator the call does not allocate. It fails on malformed input
// lengths or a failing reference lookup, and, under bounded-distance
// decoding, on an error pattern beyond the bound.
func (v *VerifierPipeline) Recover(seed uint64, helpers []uint64) (uint64, error) {
	if len(helpers) != obfuscate.ResponsesPerOutput {
		return 0, fmt.Errorf("core: %d helper words, want %d", len(helpers), obfuscate.ResponsesPerOutput)
	}
	var ys [obfuscate.ResponsesPerOutput]uint64
	corrected := 0
	for j, h := range helpers {
		ref, err := v.src.ReferenceResponse(seed, j)
		if err != nil {
			return 0, fmt.Errorf("core: reference %d: %w", j, err)
		}
		if len(ref) != v.sketch.Code().N {
			return 0, fmt.Errorf("core: reference %d has %d bits, want %d", j, len(ref), v.sketch.Code().N)
		}
		y, n, err := v.sketch.Recover(ecc.BitsToWord(ref), h)
		if err != nil {
			return 0, fmt.Errorf("core: helper %d: %w", j, err)
		}
		corrected += n
		ys[j] = y
	}
	eccRecoveries.Add(uint64(len(helpers)))
	eccCorrectedBits.Add(uint64(corrected))
	return v.net.ApplyWords(&ys), nil
}
