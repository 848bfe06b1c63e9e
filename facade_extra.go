package pufatt

import (
	"time"

	"pufatt/internal/attacks"
	"pufatt/internal/attest"
	"pufatt/internal/fpga"
	"pufatt/internal/rng"
	"pufatt/internal/slender"
	"pufatt/internal/telemetry"
)

// This file holds the rest of the surface the examples name: the FPGA
// prototype (fpgacalib), the modeling attack (mlattack), Slender PUF
// authentication (deviceauth), and the fault injection, fleet sweeps and
// admin endpoints of remoteattest and fleetwatch.

// FPGA prototype types.
type (
	// FPGAConfig parameterises the Virtex-5 board model.
	FPGAConfig = fpga.Config
	// FPGABoard is one modelled Virtex-5 board with PDL calibration.
	FPGABoard = fpga.Board
	// SIRCChannel is the host↔fabric data-collection channel.
	SIRCChannel = fpga.Channel
	// ResourceRow is one line of the Table 1 resource comparison.
	ResourceRow = fpga.ComponentRow
)

// Rand is the deterministic splittable random source the measurement
// campaigns consume (calibration, CRP collection, sweeps).
type Rand = rng.Source

// NewRand returns a deterministic random source for measurement campaigns.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// DefaultFPGAConfig returns the calibrated two-board model configuration.
func DefaultFPGAConfig() FPGAConfig { return fpga.DefaultConfig() }

// NewFPGADesign builds the shared-bitstream ALU PUF design.
func NewFPGADesign(cfg FPGAConfig) (*Design, error) { return fpga.NewDesign(cfg) }

// NewFPGABoard programs one board with the design.
func NewFPGABoard(design *Design, seed uint64, id int, cfg FPGAConfig) (*FPGABoard, error) {
	return fpga.NewBoard(design, rng.New(seed), id, cfg)
}

// NewSIRCChannel attaches a data-collection channel to a board.
func NewSIRCChannel(board *FPGABoard, bytesPerSecond float64) *SIRCChannel {
	return fpga.NewChannel(board, bytesPerSecond)
}

// Table1 returns the FPGA resource comparison rows for a PUF width.
func Table1(width int) ([]ResourceRow, error) { return fpga.Table1(width) }

// FormatTable1 renders resource rows as an aligned table.
func FormatTable1(rows []ResourceRow) string { return fpga.FormatTable1(rows) }

// Modeling-attack types.
type (
	// MLModel is a trained PUF modeling-attack model.
	MLModel = attacks.MLModel
	// ObfuscatedOracle exposes the obfuscated PUF interface to attacks.
	ObfuscatedOracle = attacks.ObfuscatedOracle
)

// TrainRawModel trains the logistic modeling attack on raw CRPs.
func TrainRawModel(dev *Device, nTrain, epochs int, seed uint64) *MLModel {
	return attacks.TrainRawModel(dev, nTrain, epochs, rng.New(seed), 0)
}

// NewObfuscatedOracle wraps a device behind the obfuscation network.
func NewObfuscatedOracle(dev *Device) (*ObfuscatedOracle, error) {
	return attacks.NewObfuscatedOracle(dev)
}

// TrainObfuscatedModel trains the attack against the obfuscated interface.
func TrainObfuscatedModel(oracle *ObfuscatedOracle, nTrain, epochs int, seed uint64) *MLModel {
	return attacks.TrainObfuscatedModel(oracle, nTrain, epochs, rng.New(seed), 0)
}

// EvaluateRawModel measures a raw model's per-bit accuracy on fresh CRPs.
func EvaluateRawModel(m *MLModel, dev *Device, nTest int, seed uint64) float64 {
	return m.AccuracyRaw(dev, nTest, rng.New(seed), 0)
}

// EvaluateObfuscatedModel measures an obfuscated model's per-bit accuracy.
func EvaluateObfuscatedModel(m *MLModel, oracle *ObfuscatedOracle, nTest int, seed uint64) float64 {
	return m.AccuracyObfuscated(oracle, nTest, rng.New(seed), 0)
}

// Slender PUF authentication (reference [22]): lightweight device
// authentication by substring matching, no error correction needed.
type (
	// SlenderParams configures the substring-matching protocol.
	SlenderParams = slender.Params
	// SlenderProver is the device side.
	SlenderProver = slender.Prover
	// SlenderVerifier is the emulation side.
	SlenderVerifier = slender.Verifier
	// SlenderOutcome reports one authentication decision.
	SlenderOutcome = slender.Outcome
)

// DefaultSlenderParams returns the calibrated protocol configuration.
func DefaultSlenderParams() SlenderParams { return slender.DefaultParams() }

// NewSlenderProver wraps a device for substring-matching authentication.
func NewSlenderProver(dev *Device, p SlenderParams) (*SlenderProver, error) {
	return slender.NewProver(dev, p)
}

// NewSlenderVerifier wraps an emulator for substring-matching verification.
func NewSlenderVerifier(em *Emulator, p SlenderParams) (*SlenderVerifier, error) {
	return slender.NewVerifier(em, p)
}

// SlenderAuthenticate runs one authentication round.
func SlenderAuthenticate(pr *SlenderProver, v *SlenderVerifier, src *Rand) (SlenderOutcome, error) {
	return slender.Authenticate(pr, v, src)
}

// Fleets, transport faults and retries.
type (
	// ProverAgent is anything that can answer an attestation challenge:
	// the honest device, an adversary, or a FaultyLink-wrapped agent.
	ProverAgent = attest.ProverAgent
	// Fleet manages attestation for a population of enrolled devices.
	Fleet = attest.Fleet
	// SweepReport classifies a sweep's nodes into healthy, compromised
	// (verifier rejected), unreachable (transport exhausted), and
	// quarantined.
	SweepReport = attest.SweepReport
	// RetryPolicy is the verifier-side transport-fault retry budget with
	// exponential backoff and seeded jitter.
	RetryPolicy = attest.RetryPolicy
	// FaultPlan sets per-frame fault probabilities for injection.
	FaultPlan = attest.FaultPlan
	// FaultInjector owns a deterministic fault schedule spanning
	// connections.
	FaultInjector = attest.FaultInjector
	// FaultyLink injects faults into an in-memory prover agent's last hop.
	FaultyLink = attest.FaultyLink
)

// NewFleet returns an empty device fleet.
func NewFleet() *Fleet { return attest.NewFleet() }

// ServeProver answers attestation challenges on a TCP address; the returned
// function closes the listener.
func ServeProver(addr string, agent ProverAgent) (string, func() error, error) {
	a, closeFn, err := attest.ListenAndServe(addr, agent)
	if err != nil {
		return "", nil, err
	}
	return a.String(), closeFn, nil
}

// DefaultRetryPolicy returns the TCP verifier retry defaults.
func DefaultRetryPolicy() RetryPolicy { return attest.DefaultRetryPolicy() }

// NewFaultInjector creates a deterministic fault schedule from a seed.
func NewFaultInjector(plan FaultPlan, seed uint64) *FaultInjector {
	return attest.NewFaultInjector(plan, seed)
}

// NewFaultyLink wraps an agent with a lossy simulated last hop.
func NewFaultyLink(agent ProverAgent, plan FaultPlan, seed uint64) *FaultyLink {
	return attest.NewFaultyLink(agent, plan, seed)
}

// Admin and federation endpoints.
type (
	// AttestTelemetry bundles the attestation layer's metric instruments
	// over one registry (see DESIGN.md "Observability").
	AttestTelemetry = attest.Telemetry
	// ScrapeSource names one verifier admin endpoint a federator polls.
	ScrapeSource = telemetry.ScrapeSource
	// FleetFederator scrapes several verifiers' admin surfaces and
	// re-serves the merged history, devices, alerts, and health, every
	// record labeled with its source.
	FleetFederator = telemetry.Federator
)

// StartAdmin serves /metrics, /debug/vars, /debug/traces, /debug/journal,
// /devices, /healthz, and /debug/pprof on the TCP address (":0" picks a
// free port); nil telemetry means the package default. The returned
// function stops the listener.
func StartAdmin(addr string, t *AttestTelemetry) (string, func() error, error) {
	a, closeFn, err := attest.StartAdmin(addr, t)
	if err != nil {
		return "", nil, err
	}
	return a.String(), closeFn, nil
}

// NewFleetFederator builds a federator over the named admin endpoints.
// Source names must be unique and non-empty: they become the "source"
// label on every merged record.
func NewFleetFederator(sources []ScrapeSource) (*FleetFederator, error) {
	return telemetry.NewFederator(sources)
}

// StartFederation serves the federator's merged admin surface
// (/metrics/history, /devices, /alerts, /healthz, /federation) on the TCP
// address (":0" picks a free port) and starts the scrape loop at the given
// interval. The returned function stops both.
func StartFederation(addr string, fed *FleetFederator, interval time.Duration) (string, func() error, error) {
	a, closeSrv, err := telemetry.Serve(addr, fed.Mux())
	if err != nil {
		return "", nil, err
	}
	stopPoll := fed.Start(interval)
	closeFn := func() error {
		stopPoll()
		return closeSrv()
	}
	return a.String(), closeFn, nil
}
