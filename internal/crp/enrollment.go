package crp

import (
	"errors"
	"fmt"

	"pufatt/internal/core"
	"pufatt/internal/ecc"
	"pufatt/internal/obfuscate"
)

// Enrollment is one device epoch's measured CRP material: the single-use
// seeds in enrollment order and, per seed, the eight reference raw
// responses captured in the trusted facility before deployment. It is
// immutable, so every holder of the epoch's claim state (a Database, a
// durable store, each replica of a cluster group) shares one by pointer;
// reference lookups (Ledger.Reference) copy out of it, so no caller can
// alias, let alone corrupt, the shared material.
type Enrollment struct {
	chipID int
	bits   int
	epoch  uint32
	seeds  []uint64
	index  map[uint64]int // seed → enrollment position
	// refs holds len(seeds)×ResponsesPerOutput reference responses,
	// seed-major (row k = seed k/8, expansion k%8), each packed into one
	// word in ecc.BitsToWord order. It is nil in a claim-only enrollment,
	// whose verifier emulates references.
	refs []uint64
}

// NewEnrollment builds an enrollment from already measured material (a
// snapshot file, an FPGA collection run, or nil refs for a claim-only seed
// budget): refs is the flat reference matrix, one byte per response bit in
// the row order above. It takes ownership of seeds. Every enrollment
// passes through here, so this is the one duplicate-seed check.
func NewEnrollment(chipID, bits int, epoch uint32, seeds []uint64, refs []uint8) (*Enrollment, error) {
	if len(seeds) == 0 {
		return nil, errors.New("crp: enrolling zero seeds")
	}
	if bits < 1 || bits > 64 {
		return nil, fmt.Errorf("crp: response width %d outside [1, 64]", bits)
	}
	if want := len(seeds) * obfuscate.ResponsesPerOutput * bits; refs != nil && len(refs) != want {
		return nil, fmt.Errorf("crp: %d reference bytes for %d seeds of %d bits, want %d",
			len(refs), len(seeds), bits, want)
	}
	e := &Enrollment{chipID: chipID, bits: bits, epoch: epoch, seeds: seeds,
		index: make(map[uint64]int, len(seeds))}
	for i, seed := range seeds {
		if _, dup := e.index[seed]; dup {
			return nil, fmt.Errorf("crp: duplicate enrollment seed %#x", seed)
		}
		e.index[seed] = i
	}
	if refs != nil {
		e.refs = make([]uint64, len(refs)/bits)
		for k := range e.refs {
			e.refs[k] = ecc.BitsToWord(refs[k*bits : (k+1)*bits])
		}
	}
	return e, nil
}

// Measure measures the device's noiseless reference responses for every
// seed at its current epoch. Enrollment happens in the trusted facility,
// so it uses the device's noiseless (averaged) behaviour. The len(seeds)×8
// expanded challenges run as one batch on the parallel batch evaluator
// (workers ≤ 0 means GOMAXPROCS).
func Measure(dev *core.Device, seeds []uint64, workers int) (*Enrollment, error) {
	design := dev.Design()
	bits := design.ResponseBits()
	const refsPer = obfuscate.ResponsesPerOutput
	rows := len(seeds) * refsPer
	challenges := core.ChallengeMatrix(design, rows)
	for i, seed := range seeds {
		for j := 0; j < refsPer; j++ {
			design.ExpandChallengeInto(challenges[i*refsPer+j], seed, j)
		}
	}
	flat := make([]uint8, rows*bits)
	dst := make([][]uint8, rows)
	for k := range dst {
		dst[k] = flat[k*bits : (k+1)*bits : (k+1)*bits]
	}
	core.NewBatchEvaluator(dev).NoiselessResponses(challenges, dst, workers)
	return NewEnrollment(dev.ChipID(), bits, dev.Epoch(), append([]uint64(nil), seeds...), flat)
}

// ChipID returns the chip the enrollment was measured for.
func (e *Enrollment) ChipID() int { return e.chipID }

// ResponseBits returns the width of every reference response.
func (e *Enrollment) ResponseBits() int { return e.bits }

// Epoch returns the device reconfiguration epoch the references belong to.
func (e *Enrollment) Epoch() uint32 { return e.epoch }

// Len returns the number of enrolled single-use seeds.
func (e *Enrollment) Len() int { return len(e.seeds) }

// Seeds returns a copy of the seeds in enrollment order.
func (e *Enrollment) Seeds() []uint64 { return append([]uint64(nil), e.seeds...) }

// Refs returns a copy of the flat reference matrix, the form NewEnrollment
// takes.
func (e *Enrollment) Refs() []uint8 {
	flat := make([]uint8, 0, len(e.refs)*e.bits)
	for _, w := range e.refs {
		flat = append(flat, ecc.WordToBits(w, e.bits)...)
	}
	return flat
}
