package attest

import (
	"fmt"

	"pufatt/internal/core"
	"pufatt/internal/mcu"
	"pufatt/internal/swatt"
)

// ProverAgent is anything that can answer an attestation challenge: the
// honest device, or one of the adversaries in package attacks. The returned
// compute time is simulated seconds spent before the response leaves the
// device.
type ProverAgent interface {
	Respond(ch Challenge) (Response, float64, error)
}

// Prover is the honest embedded device: its memory image (program +
// payload), its CPU clock, and its PUF port.
type Prover struct {
	Image *swatt.Image
	Port  *mcu.DevicePort
	// FreqHz is the CPU clock. The paper requires it to sit just under the
	// PUF datapath's reliability limit so any overclocking corrupts
	// responses; NewPair tunes it with TuneClock(ClockMargin).
	FreqHz float64
	// MaxCycles bounds one attestation run (guards against runaway
	// programs).
	MaxCycles uint64
}

// NewProver assembles an honest prover from an image and a PUF port.
func NewProver(image *swatt.Image, port *mcu.DevicePort, freqHz float64) *Prover {
	p := &Prover{Image: image, Port: port, FreqHz: freqHz, MaxCycles: 1 << 36}
	p.Port.SetClock(freqHz)
	return p
}

// TuneClock sets the CPU frequency to margin × the PUF datapath's maximum
// reliable frequency (margin slightly below 1, e.g. ClockMargin): the
// operating point Section 4.2 prescribes, where any frequency increase
// violates the PUF's setup-time condition.
func (p *Prover) TuneClock(margin float64) {
	p.FreqHz = p.Port.MaxReliableFreqHz() * margin
	p.Port.SetClock(p.FreqHz)
}

// ClockMargin is the fraction of the PUF datapath's maximum reliable
// frequency an honest prover runs at (Section 4.2): just under the limit,
// so any overclocking corrupts PUF responses.
const ClockMargin = 0.98

// NewPair builds the enrolled prover/verifier pair over one device: the
// prover runs a clone of image on the device's port at ClockMargin × F_base,
// and the verifier checks against image and the device's emulation model,
// deriving δ from the prover's clock and the port's vote count, at the
// device's current epoch. Callers set only what differs per deployment
// (budget, device name, nonces, network allowance).
func NewPair(dev *core.Device, image *swatt.Image) (*Prover, *Verifier, error) {
	port, err := mcu.NewDevicePort(dev)
	if err != nil {
		return nil, nil, err
	}
	prover := NewProver(image.Clone(), port, 1)
	prover.TuneClock(ClockMargin)
	verifier, err := NewVerifier(image, dev.Emulator(), prover.FreqHz, port.Votes)
	if err != nil {
		return nil, nil, err
	}
	verifier.PUFEpoch = dev.Epoch()
	return prover, verifier, nil
}

// SetFreq overrides the CPU clock (used by the overclocking adversary).
func (p *Prover) SetFreq(freqHz float64) {
	p.FreqHz = freqHz
	p.Port.SetClock(freqHz)
}

// Respond runs the attestation program on the device and returns the
// response plus the simulated compute time. The prover drives the device
// clock to its own frequency on every run — several agents (honest and
// adversarial) may share one physical device, each at its chosen clock.
func (p *Prover) Respond(ch Challenge) (Response, float64, error) {
	p.Port.SetClock(p.FreqHz)
	p.Image.Layout.SetNonce(p.Image.Mem, ch.EffectiveNonce())
	cpu := mcu.New(p.Image.Mem, p.FreqHz, p.Port)
	if err := cpu.Run(p.MaxCycles); err != nil {
		return Response{}, 0, fmt.Errorf("attest: prover run: %w", err)
	}
	return Response{
		Session: ch.Session,
		Tag:     p.Image.Layout.ReadResult(p.Image.Mem),
		Helpers: p.Port.DrainHelpers(),
		// Echo the device's reconfiguration epoch: the honest prover always
		// reports what silicon it actually ran, and the verifier rejects the
		// session if its enrollment belongs to a different epoch.
		Epoch: p.Port.Device().Epoch(),
	}, cpu.TimeSeconds(), nil
}
