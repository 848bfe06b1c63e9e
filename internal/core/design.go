// Package core implements the paper's primary contribution: the ALU PUF
// (Section 2) and its composition with error correction and response
// obfuscation into the PUF() primitive used by the PUFatt attestation
// protocol (Section 3).
//
// The package distinguishes three roles:
//
//   - Design: one microprocessor design containing the two-ALU PUF datapath.
//     A design fixes the netlist, the technology delay model, the variation
//     model configuration, and the design-level layout skew of the arbiter
//     input routes (identical across all chips manufactured from the
//     design — the reason measured inter-chip distances sit below the ideal
//     50 %).
//   - Device: one manufactured chip of a Design, holding its private
//     process-variation realisation. Devices measure raw responses with
//     arbiter noise, under configurable operating conditions, and under a
//     configurable clock (for the overclocking analysis).
//   - Emulator: the verifier-side model H of one device — the gate-level
//     delay table the paper's trusted party extracts at manufacturing time.
//     Emulation is noiseless and nominal-corner by definition.
package core

import (
	"fmt"
	"math"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
	"pufatt/internal/rng"
	"pufatt/internal/variation"
)

// Config parameterises an ALU PUF design.
type Config struct {
	// Width is the adder operand width: 16 (FPGA prototype) or 32
	// (simulated ASIC) in the paper. The response width equals Width.
	Width int
	// UseCarry adds the carry-out race as one extra response bit.
	UseCarry bool
	// Adder selects the adder architecture of the PUF datapath; the
	// paper's design is the ripple-carry default. The ablation benches
	// compare PUF quality across architectures.
	Adder netlist.AdderKind
	// JitterPs is the standard deviation, at the nominal corner, of the
	// per-evaluation Gaussian noise on each arbiter's arrival-time
	// difference — the arbiter-metastability model. It scales with the
	// corner's inverter delay.
	JitterPs float64
	// LayoutSkewPs scales the design-level routing mismatch between the
	// two arbiter input routes. Bit i receives a fixed skew drawn from
	// N(0, LayoutSkewPs·sqrt((i+1)/Width)): deeper bits have longer,
	// harder-to-match routes.
	LayoutSkewPs float64
	// DesignSeed determinises the layout skew; chips of the same design
	// share it.
	DesignSeed uint64
	// RoutingSkewPs, when nonzero, adds a per-gate nominal delay offset
	// drawn once per design from N(0, RoutingSkewPs·kindFactor) and shared
	// by every chip. It models FPGA routing: the automated router gives
	// the two "identical" ALUs different wire delays, a challenge-dependent
	// asymmetry common to all boards programmed with the same bitstream
	// (the reason the paper's measured FPGA inter-chip HD sits well below
	// the simulated ASIC value). Zero for ASIC.
	RoutingSkewPs float64
	// Tech is the technology parameter set (zero value → Default45nm).
	Tech delay.Params
	// Variation configures the quad-tree process model. A zero value is
	// replaced by variation.DefaultConfig over the technology's SigmaVth.
	Variation variation.Config
	// PlacementX, PlacementY locate the PUF datapath on the die (µm).
	PlacementX, PlacementY float64
}

// DefaultConfig returns the calibrated 32-bit simulation configuration used
// by the Figure 3/4 experiments. Jitter and skew were calibrated (see
// EXPERIMENTS.md) so that raw inter- and intra-chip Hamming distances land
// in the regime the paper reports (35.9 % and 11.3 %).
func DefaultConfig() Config {
	return Config{
		Width:        32,
		JitterPs:     2.6,
		LayoutSkewPs: 8.5,
		DesignSeed:   0x50554641747431, // "PUFatt1"
		PlacementX:   700,
		PlacementY:   600,
	}
}

func (c Config) withDefaults() Config {
	if c.Tech == (delay.Params{}) {
		c.Tech = delay.Default45nm()
	}
	if c.Variation == (variation.Config{}) {
		c.Variation = variation.DefaultConfig(c.Tech.SigmaVth())
	}
	return c
}

func (c Config) validate() error {
	if c.Width < 2 || c.Width > 64 {
		return fmt.Errorf("core: PUF width %d outside [2,64]", c.Width)
	}
	if c.JitterPs < 0 || c.LayoutSkewPs < 0 {
		return fmt.Errorf("core: negative noise parameters (jitter %g, skew %g)", c.JitterPs, c.LayoutSkewPs)
	}
	return nil
}

// Design is one microprocessor design embedding the two-ALU PUF.
type Design struct {
	cfg      Config
	datapath *netlist.PUFDatapath
	model    *delay.Model
	// pair0[i] and pair1[i] are the ALU 0 and ALU 1 nets whose race
	// produces response bit i (datapath.Pair, resolved once for the per-bit
	// loops of devices and emulators).
	pair0, pair1 []int
	// skewPs[i] is the fixed design-level skew added to ALU 1's arrival
	// for response bit i (may be negative).
	skewPs []float64
	// gateSkewPs is the per-gate routing delay offset (nil when
	// RoutingSkewPs is zero); shared by all chips of the design.
	gateSkewPs []float64
}

// NewDesign creates a design from the configuration.
func NewDesign(cfg Config) (*Design, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Design{
		cfg: cfg,
		datapath: netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{
			Width:    cfg.Width,
			UseCarry: cfg.UseCarry,
			Adder:    cfg.Adder,
			OriginX:  cfg.PlacementX,
			OriginY:  cfg.PlacementY,
		}),
		model: delay.NewModel(cfg.Tech),
	}
	skewSrc := rng.New(cfg.DesignSeed).Sub("layout-skew")
	bits := d.datapath.ResponseBits()
	d.pair0, d.pair1 = make([]int, bits), make([]int, bits)
	for i := range d.pair0 {
		d.pair0[i], d.pair1[i] = d.datapath.Pair(i)
	}
	d.skewPs = make([]float64, bits)
	for i := range d.skewPs {
		depth := float64(minInt(i, cfg.Width-1) + 1)
		d.skewPs[i] = skewSrc.NormMS(0, cfg.LayoutSkewPs*math.Sqrt(depth/float64(cfg.Width)))
	}
	if cfg.RoutingSkewPs > 0 {
		routeSrc := rng.New(cfg.DesignSeed).Sub("routing-skew")
		nl := d.datapath.Net
		d.gateSkewPs = make([]float64, len(nl.Gates))
		for g := range nl.Gates {
			if f := delay.KindFactor(nl.Gates[g].Kind); f > 0 {
				// Routing mismatch scales with the cell's drive burden but
				// never drives total delay negative (clamped in BuildTable).
				d.gateSkewPs[g] = routeSrc.NormMS(0, cfg.RoutingSkewPs*f)
			}
		}
	}
	return d, nil
}

// MustNewDesign is NewDesign that panics on error.
func MustNewDesign(cfg Config) *Design {
	d, err := NewDesign(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the design configuration (with defaults resolved).
func (d *Design) Config() Config { return d.cfg }

// Datapath exposes the structural netlist (public knowledge; the secret is
// the per-chip delay realisation).
func (d *Design) Datapath() *netlist.PUFDatapath { return d.datapath }

// DelayModel returns the technology delay model.
func (d *Design) DelayModel() *delay.Model { return d.model }

// ResponseBits returns the response width in bits.
func (d *Design) ResponseBits() int { return d.datapath.ResponseBits() }

// ChallengeBits returns the challenge width in bits (two operands).
func (d *Design) ChallengeBits() int { return 2 * d.cfg.Width }

// SkewPs returns the design-level per-bit layout skew (shared across chips).
func (d *Design) SkewPs() []float64 { return append([]float64(nil), d.skewPs...) }

// Mix32 is the public 32-bit finaliser (MurmurHash3) used to expand
// challenge seeds into ALU operands. It is chosen to be cheaply computable
// by the prover CPU itself — a handful of XOR/SHR/MUL instructions — so the
// attestation program can derive PUF operands in software exactly as the
// verifier does (see internal/mcu and internal/swatt).
func Mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// Operand-derivation constants for ExpandOperands, shared with the MCU
// attestation program generator.
const (
	ExpandStepA = 0x9e3779b9 // golden-ratio step for operand A
	ExpandStepB = 0x7f4a7c15 // step for operand B
	ExpandSaltB = 0xd192ed03 // salt separating the B stream
)

// ExpandOperands derives the j-th ALU operand pair for a challenge seed.
// Only the low 32 bits of the seed participate, so a 32-bit prover derives
// identical operands.
func (d *Design) ExpandOperands(seed uint64, j int) (a, b uint32) {
	s := uint32(seed)
	a = Mix32(s + ExpandStepA*uint32(2*j+1))
	b = Mix32((s ^ ExpandSaltB) + ExpandStepB*uint32(2*j+2))
	return a, b
}

// ExpandChallenge expands a challenge seed into the j-th full challenge
// bit-vector for this design. The obfuscation network consumes eight raw
// responses per output; prover and verifier derive the eight underlying raw
// challenges from one seed with this public expansion (a mixing function,
// not a secret). Widths above 32 repeat the operand words.
func (d *Design) ExpandChallenge(seed uint64, j int) []uint8 {
	return d.ExpandChallengeInto(make([]uint8, 2*d.cfg.Width), seed, j)
}

// ExpandChallengeInto is ExpandChallenge into caller-owned storage (which
// must have length ChallengeBits). Batch producers use it to fill
// preallocated challenge matrices without a per-challenge allocation.
func (d *Design) ExpandChallengeInto(dst []uint8, seed uint64, j int) []uint8 {
	if len(dst) != 2*d.cfg.Width {
		panic(fmt.Sprintf("core: challenge buffer of %d bits, want %d", len(dst), 2*d.cfg.Width))
	}
	a, b := d.ExpandOperands(seed, j)
	for i := 0; i < d.cfg.Width; i++ {
		dst[i] = uint8(a >> uint(i%32) & 1)
		dst[d.cfg.Width+i] = uint8(b >> uint(i%32) & 1)
	}
	return dst
}

// ChallengeFromOperands builds a challenge bit-vector from two operand
// words.
func (d *Design) ChallengeFromOperands(a, b uint64) []uint8 {
	ch := make([]uint8, 2*d.cfg.Width)
	for i := 0; i < d.cfg.Width; i++ {
		ch[i] = uint8(a >> uint(i) & 1)
		ch[d.cfg.Width+i] = uint8(b >> uint(i) & 1)
	}
	return ch
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
