package cluster

import (
	"fmt"

	"pufatt/internal/core"
	"pufatt/internal/ecc"
	"pufatt/internal/obfuscate"
)

// Enrollment is one device's measured CRP material: the seed order and the
// eight reference raw responses per seed, captured in the trusted facility
// before deployment (exactly what crp.Enroll measures). It is immutable
// after construction, which is what makes replication cheap: every replica
// of a device shares one Enrollment by pointer, and only the claim log —
// the mutable "which seeds are burned" half — streams between shards.
// References are packed one word per raw response (ecc.BitsToWord order) and
// only ever handed out unpacked into fresh slices, so no caller can alias,
// let alone corrupt, the shared material.
type Enrollment struct {
	device int
	bits   int
	epoch  uint32
	order  []uint64
	refs   map[uint64][obfuscate.ResponsesPerOutput]uint64
}

// NewEnrollment measures the device's noiseless reference responses for
// every seed.
func NewEnrollment(dev *core.Device, seeds []uint64) (*Enrollment, error) {
	e := &Enrollment{
		device: dev.ChipID(),
		bits:   dev.Design().ResponseBits(),
		epoch:  dev.Epoch(),
		refs:   make(map[uint64][obfuscate.ResponsesPerOutput]uint64, len(seeds)),
	}
	for _, seed := range seeds {
		if _, dup := e.refs[seed]; dup {
			return nil, fmt.Errorf("cluster: duplicate enrollment seed %#x", seed)
		}
		var refs [obfuscate.ResponsesPerOutput]uint64
		for j := range refs {
			ch := dev.Design().ExpandChallenge(seed, j)
			refs[j] = ecc.BitsToWord(dev.NoiselessResponse(ch))
		}
		e.refs[seed] = refs
		e.order = append(e.order, seed)
	}
	return e, nil
}

// Device returns the chip ID the enrollment was measured for.
func (e *Enrollment) Device() int { return e.device }

// Epoch returns the device reconfiguration epoch the references belong to.
func (e *Enrollment) Epoch() uint32 { return e.epoch }

// Seeds returns the number of enrolled single-use seeds.
func (e *Enrollment) Seeds() int { return len(e.order) }
