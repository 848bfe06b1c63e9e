package cluster

import (
	"pufatt/internal/core"
	"pufatt/internal/crp"
)

// Enrollment is one device's measured CRP material for one epoch. It is
// immutable, which is what makes replication cheap: every replica of a
// device shares one Enrollment by pointer, and only the claim frames —
// the mutable "which seeds are burned" half — stream between shards.
type Enrollment = crp.Enrollment

// NewEnrollment measures the device's noiseless reference responses for
// every seed (crp.Measure).
func NewEnrollment(dev *core.Device, seeds []uint64) (*Enrollment, error) {
	return crp.Measure(dev, seeds, 0)
}
