package core

import (
	"fmt"

	"pufatt/internal/netlist"
)

// PUF epoch reconfiguration, after the remotely reconfigured arbiter PUF of
// Spenke, Breithaupt and Plaga (PAPERS.md): a reconfiguration re-randomizes
// the delay instance, yielding a fresh CRP space. The CRP-database
// verification path burns one single-use seed per attestation, so a
// device's authentication lifetime is bounded by the enrollment effort;
// reconfiguring under a new *epoch* lifts that bound — the verifier
// re-enrolls the reconfigured instance and the old epoch's (possibly
// modeled, possibly exhausted) CRP space becomes worthless to an attacker.
//
// The model: each epoch e > 0 overlays an additional per-gate threshold
// offset drawn from a dedicated substream of the device's root seed, with
// the same standard deviation as the manufacturing process variation.
// Epoch 0 is the manufactured instance, bit-exact with pre-epoch behaviour.
// Because the overlay derives deterministically from (root seed, epoch),
// any epoch can be revisited for audit: SetEpoch(old) reproduces the
// retired instance exactly, including its enrollment references.

// SetEpoch reconfigures the device's delay instance to the given epoch,
// rebuilding the delay tables. Epoch 0 restores the manufactured instance.
// The same (device, epoch) pair always yields the same instance, in either
// direction — switching back to an earlier epoch reproduces it exactly.
func (dev *Device) SetEpoch(epoch uint32) {
	if epoch == dev.epoch && (epoch != 0 || dev.epochVth == nil) {
		return
	}
	dev.epoch = epoch
	if epoch == 0 {
		dev.epochVth = nil
	} else {
		dev.epochVth = dev.epochOffsets(epoch)
	}
	dev.reloadTables()
}

// Epoch returns the device's current reconfiguration epoch.
func (dev *Device) Epoch() uint32 { return dev.epoch }

// Reconfigure advances the device to the next epoch and returns it — the
// prover-side half of an epoch cutover.
func (dev *Device) Reconfigure() uint32 {
	dev.SetEpoch(dev.epoch + 1)
	return dev.epoch
}

// epochOffsets draws the per-gate Vth overlay for epoch e (> 0). The
// overlay has the full process-variation sigma, so the reconfigured
// instance's race outcomes decorrelate from every other epoch's — the
// fresh-CRP-space property the re-enrollment pipeline relies on. Inputs
// and constants carry no delay and are skipped, as in aging.
func (dev *Device) epochOffsets(e uint32) []float64 {
	if e == 0 {
		panic(fmt.Sprintf("core: epochOffsets(%d)", e))
	}
	nl := dev.design.datapath.Net
	src := dev.epochRoot.SubN("epoch", int(e))
	out := make([]float64, len(nl.Gates))
	sigma := dev.design.cfg.Variation.SigmaTotal
	for g := range nl.Gates {
		switch nl.Gates[g].Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		out[g] = src.NormMS(0, sigma)
	}
	return out
}
