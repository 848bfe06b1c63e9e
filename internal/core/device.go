package core

import (
	"fmt"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
	"pufatt/internal/rng"
	"pufatt/internal/sim"
	"pufatt/internal/variation"
)

// Device is one manufactured instance of an ALU PUF Design: a chip with its
// own process-variation realisation. A Device is not safe for concurrent
// use.
type Device struct {
	design *Design
	chipID int
	// dVth is the chip's per-gate process variation; the quad-tree chip
	// model it was drawn from is not retained.
	dVth   []float64
	cond   delay.Conditions
	tables map[delay.Conditions]delay.Table
	engine *sim.Engine
	noise  *rng.Source
	// jitterScale converts the configured nominal jitter to the current
	// corner (slower corner → proportionally larger arrival jitter).
	jitterScale float64
	// critPathPs caches CriticalPathPs for the current delay table; 0 means
	// not yet computed (SetConditions, and so every table rebuild, resets
	// it).
	critPathPs float64
	// challenge buffer reused across queries.
	inBuf, respBuf []uint8
	queries        uint64
	// extraSkewPs is optional per-bit skew (FPGA board routing + PDL).
	extraSkewPs []float64
	// agingVth accumulates per-gate BTI drift (see aging.go); agingSrc
	// draws its variability, and cones memoises fanin cones for the
	// directed-aging procedure.
	agingVth []float64
	agingSrc *rng.Source
	cones    map[int][]int
	// epoch is the reconfiguration epoch (see epoch.go); epochVth is its
	// per-gate Vth overlay (nil at epoch 0), drawn from epochRoot.
	epoch     uint32
	epochVth  []float64
	epochRoot *rng.Source
	// batch is the lazily created parallel evaluator (see batch.go);
	// batchEpochs counts batch invocations so each batch draws fresh,
	// worker-count-independent per-challenge noise streams.
	batch       *BatchEvaluator
	batchEpochs uint64
	// Scratch of the sequential queries' respond stage: per-bit deltas,
	// jitter draws and vote counts.
	deltaBuf, noiseBuf []float64
	voteBuf            []int
}

// NewDevice manufactures chip chipID of the design, drawing its process
// variation from the master source. The same (master seed, chipID) always
// yields the same physical chip; the arbiter-noise stream is also derived
// from it, so whole experiments replay bit-exactly.
func NewDevice(d *Design, master *rng.Source, chipID int) (*Device, error) {
	chip, err := variation.NewChip(d.cfg.Variation, master, chipID)
	if err != nil {
		return nil, err
	}
	dev := &Device{
		design: d,
		chipID: chipID,
		dVth:   chip.VthOffsets(d.datapath.Net, 0, 0),
		tables: make(map[delay.Conditions]delay.Table),
		noise:  master.SubN("device/noise", chipID),
		// The epoch root is bound to the manufacturing seed, never the
		// mutable noise stream, so epoch overlays are a pure function of
		// (master seed, chipID, epoch) — reproducible for audit.
		epochRoot: master.SubN("device/epoch", chipID),
		inBuf:     make([]uint8, 2*d.cfg.Width),
		respBuf:   make([]uint8, d.ResponseBits()),
		deltaBuf:  make([]float64, d.ResponseBits()),
		noiseBuf:  make([]float64, d.ResponseBits()),
		voteBuf:   make([]int, d.ResponseBits()),
	}
	dev.SetConditions(delay.Nominal())
	return dev, nil
}

// MustNewDevice is NewDevice that panics on error.
func MustNewDevice(d *Design, master *rng.Source, chipID int) *Device {
	dev, err := NewDevice(d, master, chipID)
	if err != nil {
		panic(err)
	}
	return dev
}

// Design returns the device's design.
func (dev *Device) Design() *Design { return dev.design }

// ChipID returns the chip identifier.
func (dev *Device) ChipID() int { return dev.chipID }

// Queries returns how many raw PUF evaluations this device has served; the
// oracle-attack analysis uses it to account for PUF access bandwidth.
func (dev *Device) Queries() uint64 { return dev.queries }

// Conditions returns the current operating corner.
func (dev *Device) Conditions() delay.Conditions { return dev.cond }

// SetConditions moves the device to an operating corner (supply voltage and
// temperature), rebuilding (or reusing a cached) delay table.
func (dev *Device) SetConditions(cond delay.Conditions) {
	dev.cond = cond
	tab, ok := dev.tables[cond]
	if !ok {
		tab = delay.BuildTable(dev.design.model, dev.design.datapath.Net, dev.effectiveVth(), dev.design.gateSkewPs, cond)
		dev.tables[cond] = tab
	}
	if dev.engine == nil {
		dev.engine = sim.NewEngine(dev.design.datapath.Net, tab)
	} else {
		dev.engine.SetDelays(tab)
	}
	dev.jitterScale = dev.design.model.InverterDelay(cond) / dev.design.model.InverterDelay(delay.Nominal())
	dev.critPathPs = 0
}

// arrivalDelta returns, for response bit i, the arrival-time difference
// (ALU1 + design skew + per-device extra skew) − ALU0 given the engine's
// last run.
func (dev *Device) arrivalDelta(arr []float64, i int) float64 {
	d := arr[dev.design.pair1[i]] + dev.design.skewPs[i] - arr[dev.design.pair0[i]]
	if dev.extraSkewPs != nil {
		d += dev.extraSkewPs[i]
	}
	return d
}

// fillDeltas writes every response bit's arrival delta from one pass's
// arrivals.
func (dev *Device) fillDeltas(arr, deltas []float64) {
	for i := range deltas {
		deltas[i] = dev.arrivalDelta(arr, i)
	}
}

// SetExtraSkewPs installs per-bit additive skew on top of the design skew:
// board-level routing mismatch and PDL compensation in the FPGA prototype
// (package fpga). Pass nil to clear.
func (dev *Device) SetExtraSkewPs(skew []float64) {
	if skew != nil && len(skew) != dev.design.ResponseBits() {
		panic(fmt.Sprintf("core: extra skew of %d entries for %d response bits", len(skew), dev.design.ResponseBits()))
	}
	dev.extraSkewPs = skew
}

// ExtraSkewPs returns the per-device extra skew (nil if unset).
func (dev *Device) ExtraSkewPs() []float64 { return dev.extraSkewPs }

// RawResponse measures the raw (pre-correction, pre-obfuscation) PUF
// response to the challenge at the current corner, including per-evaluation
// arbiter noise. Response bit i is 1 when ALU 0's output settles first.
//
// Aliasing contract: the returned slice is device-owned scratch, overwritten
// in place by the next RawResponse/ClockedResponse call — finish reading
// (or copy) before querying again, and never retain it.
// Callers that need stable storage use RawResponseCopy; batch callers use
// RawResponses, whose rows are caller-owned. TestRawResponseAliasingContract
// enforces this.
func (dev *Device) RawResponse(challenge []uint8) []uint8 {
	return dev.respond(challenge, dev.respBuf, 1, true)
}

// respond runs one gate-level pass for the challenge and hands its deltas
// to the batch's respond stage (respondFromDeltas), drawing any noise from
// the device's rolling stream: votes-fold when noisy, vote-major and
// bit-ascending, the order of votes successive RawResponse calls. It counts
// votes queries.
func (dev *Device) respond(challenge, out []uint8, votes int, noisy bool) []uint8 {
	dev.fillDeltas(dev.arrivals(challenge), dev.deltaBuf)
	jitter := dev.design.cfg.JitterPs * dev.jitterScale
	respondFromDeltas(out, dev.voteBuf, dev.deltaBuf, dev.noiseBuf, 1, 0, dev.noise, jitter, votes, noisy)
	dev.queries += uint64(votes)
	return out
}

// RawResponseCopy is RawResponse into freshly allocated storage.
func (dev *Device) RawResponseCopy(challenge []uint8) []uint8 {
	return append([]uint8(nil), dev.RawResponse(challenge)...)
}

// MajorityResponse measures the raw response votes times and returns the
// bitwise majority, reducing the effective per-bit error rate (standard
// temporal majority voting; see DESIGN.md on reaching the paper's claimed
// false-negative rate with a real (32,6,16) decoder). votes must be odd.
// The arrivals are deterministic, so one gate-level pass serves every vote;
// the result equals the bitwise majority of votes RawResponse calls, noise
// draw for noise draw. The returned slice is fresh.
func (dev *Device) MajorityResponse(challenge []uint8, votes int) []uint8 {
	if votes < 1 || votes%2 == 0 {
		panic(fmt.Sprintf("core: majority votes %d must be odd and positive", votes))
	}
	return dev.respond(challenge, make([]uint8, dev.design.ResponseBits()), votes, true)
}

// NoiselessResponse measures the response without arbiter noise: the
// idealised expected response at the current corner. Enrollment and
// emulation use it at the nominal corner.
func (dev *Device) NoiselessResponse(challenge []uint8) []uint8 {
	return dev.respond(challenge, make([]uint8, dev.design.ResponseBits()), 1, false)
}

func (dev *Device) arrivals(challenge []uint8) []float64 {
	if len(challenge) != 2*dev.design.cfg.Width {
		panic(fmt.Sprintf("core: challenge of %d bits, want %d", len(challenge), 2*dev.design.cfg.Width))
	}
	copy(dev.inBuf, challenge)
	_, arr := dev.engine.Run(dev.inBuf)
	return arr
}

// ArrivalDeltas returns the per-bit arrival-time differences for a
// challenge (positive = ALU 0 first). Attack code uses this as the
// idealised side-channel; tests use it to probe the physics.
func (dev *Device) ArrivalDeltas(challenge []uint8) []float64 {
	out := make([]float64, dev.design.ResponseBits())
	dev.fillDeltas(dev.arrivals(challenge), out)
	return out
}

// CriticalPathPs returns the static worst-case propagation delay T_ALU of
// the PUF datapath at the current corner: the topological longest path,
// ignoring logical masking. The overclocking condition of Section 4.2 is
// T_ALU + T_set < T_cycle. It is computed once per delay table.
func (dev *Device) CriticalPathPs() float64 {
	if dev.critPathPs == 0 {
		dev.critPathPs = dev.criticalPathPs()
	}
	return dev.critPathPs
}

func (dev *Device) criticalPathPs() float64 {
	nl := dev.design.datapath.Net
	tab := dev.tables[dev.cond]
	arr := make([]float64, len(nl.Gates))
	worst := 0.0
	for _, g := range nl.Order {
		gate := &nl.Gates[g]
		t := 0.0
		for _, f := range gate.Fanin {
			if arr[f] > t {
				t = arr[f]
			}
		}
		arr[g] = t + tab.Ps[g]
		if arr[g] > worst {
			worst = arr[g]
		}
	}
	return worst
}

// ClockedResponse measures the raw response when the PUF output registers
// are latched after one clock period tCyclePs with register setup time
// tSetupPs. Bits whose races have not resolved by the latch deadline
// (max arrival + setup > cycle) are latched from a metastable arbiter and
// resolve randomly — the overclocking failure mode of Section 4.2. The
// returned slice aliases the device buffer; valid reports how many bits
// latched cleanly.
func (dev *Device) ClockedResponse(challenge []uint8, tCyclePs, tSetupPs float64) (resp []uint8, valid int) {
	arr := dev.arrivals(challenge)
	jitter := dev.design.cfg.JitterPs * dev.jitterScale
	deadline := tCyclePs - tSetupPs
	p0, p1, skew := dev.design.pair0, dev.design.pair1, dev.design.skewPs
	for i := range dev.respBuf {
		t0 := arr[p0[i]]
		t1 := arr[p1[i]] + skew[i]
		if dev.extraSkewPs != nil {
			t1 += dev.extraSkewPs[i]
		}
		if t0 <= deadline && t1 <= deadline {
			d := t1 - t0
			if jitter > 0 {
				d += dev.noise.NormMS(0, jitter)
			}
			if d > 0 {
				dev.respBuf[i] = 1
			} else {
				dev.respBuf[i] = 0
			}
			valid++
		} else {
			// Setup-time violation: the register samples an unresolved
			// arbiter.
			dev.respBuf[i] = dev.noise.Bit()
		}
	}
	dev.queries++
	return dev.respBuf, valid
}

// MinReliableCyclePs returns the smallest clock period at which every
// response bit of the given challenge latches cleanly (max pair arrival +
// setup), at the current corner.
func (dev *Device) MinReliableCyclePs(challenge []uint8, tSetupPs float64) float64 {
	arr := dev.arrivals(challenge)
	worst := 0.0
	p0, p1, skew := dev.design.pair0, dev.design.pair1, dev.design.skewPs
	for i := range p0 {
		if arr[p0[i]] > worst {
			worst = arr[p0[i]]
		}
		t := arr[p1[i]] + skew[i]
		if dev.extraSkewPs != nil {
			t += dev.extraSkewPs[i]
		}
		if t > worst {
			worst = t
		}
	}
	return worst + tSetupPs
}

// NominalTable returns (a copy of) the device's nominal-corner delay
// table, for external analyses (waveform capture, timing studies).
func (dev *Device) NominalTable() delay.Table {
	nom := delay.Nominal()
	tab, ok := dev.tables[nom]
	if !ok {
		tab = delay.BuildTable(dev.design.model, dev.design.datapath.Net, dev.effectiveVth(), dev.design.gateSkewPs, nom)
		dev.tables[nom] = tab
	}
	return tab.Clone()
}

// EventDrivenSettleTime runs the full event-driven simulator for the
// challenge (from the all-zero state) and returns the time of the last
// signal transition — a cross-check on the levelized engine and the basis
// for glitch-accurate analyses.
func (dev *Device) EventDrivenSettleTime(challenge []uint8) float64 {
	es := sim.NewEventSim(dev.design.datapath.Net, dev.tables[dev.cond])
	es.Settle(make([]uint8, 2*dev.design.cfg.Width))
	in := make([]uint8, 2*dev.design.cfg.Width)
	copy(in, challenge)
	es.Apply(in)
	return es.Run()
}

// ExportModel extracts the verifier-side emulation model H: the gate-level
// delay table at the nominal corner plus the design skew. In an ASIC this
// readout happens through a fuse-protected test interface at manufacturing
// time; here it is a method only the enrolling authority calls.
func (dev *Device) ExportModel() *Model {
	m := dev.model()
	m.Table = m.Table.Clone()
	return m
}

// model is the device's emulation model over its own nominal delay table,
// not a copy: delay tables are never written after they are built.
func (dev *Device) model() *Model {
	nom := delay.Nominal()
	tab, ok := dev.tables[nom]
	if !ok {
		tab = delay.BuildTable(dev.design.model, dev.design.datapath.Net, dev.effectiveVth(), dev.design.gateSkewPs, nom)
		dev.tables[nom] = tab
	}
	skew := dev.design.SkewPs()
	if dev.extraSkewPs != nil {
		for i := range skew {
			skew[i] += dev.extraSkewPs[i]
		}
	}
	return &Model{
		Width:    dev.design.cfg.Width,
		UseCarry: dev.design.cfg.UseCarry,
		ChipID:   dev.chipID,
		Table:    tab,
		SkewPs:   skew,
	}
}

// Emulator returns a verifier-side emulator for this device: NewEmulator
// over the device's model, sharing its read-only nominal delay table where
// ExportModel copies it.
func (dev *Device) Emulator() *Emulator {
	return NewEmulator(dev.design, dev.model())
}

// netlistOf is a test hook returning the device's netlist.
func (dev *Device) netlistOf() *netlist.Netlist { return dev.design.datapath.Net }
