package pufatt

import (
	"context"
	"time"

	"pufatt/internal/attacks"
	"pufatt/internal/attest"
	"pufatt/internal/buildinfo"
	"pufatt/internal/fpga"
	"pufatt/internal/mcu"
	"pufatt/internal/rng"
	"pufatt/internal/slender"
	"pufatt/internal/swatt"
	"pufatt/internal/telemetry"
)

// This file extends the facade with the FPGA-prototype and adversary
// tooling, so example programs and downstream users can reach every
// system the paper describes through the public API.

// FPGA prototype types.
type (
	// FPGAConfig parameterises the Virtex-5 board model.
	FPGAConfig = fpga.Config
	// PDL is a programmable delay line.
	PDL = fpga.PDL
	// CalibrationReport summarises a PDL calibration run.
	CalibrationReport = fpga.CalibrationReport
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

// Adversary tooling.
type (
	// MLModel is a trained PUF modeling-attack model.
	MLModel = attacks.MLModel
	// ObfuscatedOracle exposes the obfuscated PUF interface to attacks.
	ObfuscatedOracle = attacks.ObfuscatedOracle
	// OracleProxyProver is the PUF-as-oracle outsourcing adversary.
	OracleProxyProver = attacks.OracleProxyProver
	// OverclockPoint is one sample of the overclocking corruption sweep.
	OverclockPoint = attacks.OverclockPoint
	// DevicePort couples a device to the MCU's pstart/pend instructions.
	DevicePort = mcu.DevicePort
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

// NewForgeryProver builds the memory-copy attack prover.
func NewForgeryProver(expected *Image, malware []uint32, port *DevicePort, freqHz float64) (*Prover, error) {
	return attacks.NewForgeryProver(expected, malware, port, freqHz)
}

// ForgeryOverheadCycles measures the forgery's extra cycles.
func ForgeryOverheadCycles(expected *Image, votes int) (extra, honest, forged uint64, err error) {
	return attacks.ForgeryOverheadCycles(expected, votes)
}

// OverclockSweep measures PUF response corruption across clock factors.
func OverclockSweep(dev *Device, port *DevicePort, factors []float64, trials int, seed uint64) []OverclockPoint {
	return attacks.OverclockSweep(dev, port, factors, trials, rng.New(seed))
}

// OracleAttackTime returns the proxy adversary's minimum elapsed time.
func OracleAttackTime(chunks int, link Link) float64 {
	return attacks.OracleAttackTime(chunks, link)
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

// MCU / attestation-program tooling.

// NewDevicePort couples a device to the pstart/pend instructions.
func NewDevicePort(dev *Device) (*DevicePort, error) { return mcu.NewDevicePort(dev) }

// GenerateAttestationProgram emits the SWATT-style checksum assembly.
func GenerateAttestationProgram(p AttestParams) (string, error) {
	return swatt.GenerateProgram(p)
}

// BuildAttestationImage assembles the attestation program plus payload.
func BuildAttestationImage(p AttestParams, payload []uint32) (*Image, error) {
	return swatt.BuildImage(p, payload)
}

// NewProver wraps an image and a port into the honest prover agent.
func NewProver(image *Image, port *DevicePort, freqHz float64) *Prover {
	return attest.NewProver(image, port, freqHz)
}

// NewVerifier builds the protocol verifier over a reference source.
func NewVerifier(expected *Image, src ReferenceSource, baseFreqHz float64, votes int) (*Verifier, error) {
	return attest.NewVerifier(expected, src, baseFreqHz, votes)
}

// ReferenceSource supplies verifier reference responses (Emulator or
// CRPDatabase).
type ReferenceSource = interface {
	ReferenceResponse(seed uint64, j int) ([]uint8, error)
	ResponseBits() int
}

// Fleet types for population attestation.
type (
	// Fleet manages attestation for a population of enrolled devices.
	Fleet = attest.Fleet
	// NodeResult is one node's sweep outcome.
	NodeResult = attest.NodeResult
	// SweepReport classifies a sweep's nodes into healthy, compromised
	// (verifier rejected), unreachable (transport exhausted), and
	// quarantined.
	SweepReport = attest.SweepReport
)

// NewFleet returns an empty device fleet.
func NewFleet() *Fleet { return attest.NewFleet() }

// ServeProver answers attestation challenges on a TCP address; the returned
// function closes the listener.
func ServeProver(addr string, agent attest.ProverAgent) (string, func() error, error) {
	a, closeFn, err := attest.ListenAndServe(addr, agent)
	if err != nil {
		return "", nil, err
	}
	return a.String(), closeFn, nil
}

// Fault tolerance: transport hardening, retry policy, and the
// deterministic fault-injection harness.
type (
	// ProverAgent is anything that can answer an attestation challenge:
	// the honest device, an adversary, or a FaultyLink-wrapped agent.
	ProverAgent = attest.ProverAgent
	// AttestServer is the supervised TCP prover service (error surfacing,
	// per-exchange deadlines, deterministic drain-on-close).
	AttestServer = attest.Server
	// RetryPolicy is the verifier-side transport-fault retry budget with
	// exponential backoff and seeded jitter.
	RetryPolicy = attest.RetryPolicy
	// FaultPlan sets per-frame fault probabilities for injection.
	FaultPlan = attest.FaultPlan
	// FaultClass enumerates the injectable fault classes.
	FaultClass = attest.FaultClass
	// FaultInjector owns a deterministic fault schedule spanning
	// connections.
	FaultInjector = attest.FaultInjector
	// FaultyConn injects frame-granular faults into a byte stream.
	FaultyConn = attest.FaultyConn
	// FaultyLink injects faults into an in-memory prover agent's last hop.
	FaultyLink = attest.FaultyLink
)

// Injectable fault classes.
const (
	FaultDrop      = attest.FaultDrop
	FaultCorrupt   = attest.FaultCorrupt
	FaultTruncate  = attest.FaultTruncate
	FaultDelay     = attest.FaultDelay
	FaultDuplicate = attest.FaultDuplicate
)

// DefaultRetryPolicy returns the TCP verifier retry defaults.
func DefaultRetryPolicy() RetryPolicy { return attest.DefaultRetryPolicy() }

// NewFaultInjector creates a deterministic fault schedule from a seed.
func NewFaultInjector(plan FaultPlan, seed uint64) *FaultInjector {
	return attest.NewFaultInjector(plan, seed)
}

// NewFaultyLink wraps an agent with a lossy simulated last hop.
func NewFaultyLink(agent attest.ProverAgent, plan FaultPlan, seed uint64) *FaultyLink {
	return attest.NewFaultyLink(agent, plan, seed)
}

// IsTransport reports whether an attestation error is a retryable channel
// fault (as opposed to a device failure or a user abort; a verifier
// rejection is never an error at all).
func IsTransport(err error) bool { return attest.IsTransport(err) }

// RunSessionRetry attests over the simulated link with a transport-fault
// retry budget until a session completes or ctx ends; a verdict — accepted
// or rejected — is never retried.
func RunSessionRetry(ctx context.Context, v *Verifier, agent attest.ProverAgent, link Link, policy RetryPolicy) (Result, int, error) {
	return attest.RunSessionRetry(ctx, v, agent, link, policy)
}

// Observability: telemetry instruments, attestation tracing, and the HTTP
// admin surface.
type (
	// AttestTelemetry bundles the attestation layer's metric instruments
	// over one registry (see DESIGN.md "Observability").
	AttestTelemetry = attest.Telemetry
	// SweepStats is one fleet sweep's aggregate telemetry (attempts,
	// retries, probes, quarantine transitions, RTT summary, elapsed).
	SweepStats = attest.SweepStats
	// FaultEvent is the one-line JSON record emitted per injected fault.
	FaultEvent = attest.FaultEvent
	// MetricsRegistry holds named metric families and renders them as
	// Prometheus text exposition or expvar-style JSON.
	MetricsRegistry = telemetry.Registry
	// Tracer records recent attestation span trees in a ring buffer.
	Tracer = telemetry.Tracer
	// HealthSLO holds the per-device service-level thresholds (timing,
	// failure rate, FNR drift, transport/retry rates) that drive the
	// ok/degraded/suspect judgement at /devices and /healthz.
	HealthSLO = telemetry.SLO
	// DeviceHealth is one device's rolling-window health snapshot.
	DeviceHealth = telemetry.DeviceHealth
	// HealthRegistry aggregates per-device session outcomes and judges
	// them against a HealthSLO.
	HealthRegistry = telemetry.HealthRegistry
	// ProtocolJournal is the bounded ring of structured protocol events
	// behind /debug/journal and the flight recorder.
	ProtocolJournal = telemetry.Journal
	// BuildInfo identifies a built pufatt tool (version, VCS revision).
	BuildInfo = buildinfo.Info
)

// DefaultHealthSLO returns the conservative stock thresholds; the timing
// bound MaxRTTP95 is deployment-specific and left unset.
func DefaultHealthSLO() HealthSLO { return telemetry.DefaultSLO() }

// AttestMetrics returns the attestation layer's package-default telemetry:
// the instruments every session, retry, sweep, and injected fault records
// into, served by the admin endpoint.
func AttestMetrics() *AttestTelemetry { return attest.Metrics() }

// DefaultMetrics returns the process-wide metric registry shared by every
// instrumented layer (attest, sim, crp, obfuscate, PUF pipeline).
func DefaultMetrics() *MetricsRegistry { return telemetry.Default() }

// DefaultTracer returns the process-wide attestation tracer.
func DefaultTracer() *Tracer { return telemetry.DefaultTracer() }

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

// Fleet federation types: one observability endpoint over many verifiers.
type (
	// MetricsHistory is the bounded windowed time-series store behind
	// /metrics/history.
	MetricsHistory = telemetry.TimeSeries
	// AlertManager evaluates SLO burn-rate rules over the metric history
	// and serves /alerts.
	AlertManager = telemetry.AlertManager
	// AlertRule is one burn-rate alerting rule (ratio, quantile, or gauge
	// threshold over dual fast/slow windows).
	AlertRule = telemetry.Rule
	// ScrapeSource names one verifier admin endpoint a federator polls.
	ScrapeSource = telemetry.ScrapeSource
	// FleetFederator scrapes several verifiers' admin surfaces and
	// re-serves the merged history, devices, alerts, and health, every
	// record labeled with its source.
	FleetFederator = telemetry.Federator
)

// DefaultAlertRules derives the stock burn-rate rule set (session
// failures, false-negative rate, RTT p95, seed budget) from an SLO.
func DefaultAlertRules(slo HealthSLO) []AlertRule { return attest.DefaultAlertRules(slo) }

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
