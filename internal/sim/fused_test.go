package sim

import (
	"math"
	"testing"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
	"pufatt/internal/rng"
)

// opListEngine returns an Engine over nl that runs every logic gate through
// the flat op list, never the fused pass: the reference the fused Run must
// match.
func opListEngine(nl *netlist.Netlist, tab delay.Table) *Engine {
	e := NewEngine(nl, tab)
	e.prog = &program{}
	e.prog.ops, e.prog.fanin = compileOps(nl, nil)
	return e
}

// assertRunsIdentical runs trials random input vectors through both engines
// and compares every gate's value and arrival bits.
func assertRunsIdentical(t *testing.T, nl *netlist.Netlist, got, want *Engine, src *rng.Source, trials int) {
	t.Helper()
	in := make([]uint8, len(nl.Inputs))
	for trial := 0; trial < trials; trial++ {
		src.Bits(in)
		gv, ga := got.Run(in)
		wv, wa := want.Run(in)
		for g := range nl.Gates {
			if gv[g] != wv[g] || math.Float64bits(ga[g]) != math.Float64bits(wa[g]) {
				t.Fatalf("trial %d: gate %d (%s) = (%d, %v), op list (%d, %v)",
					trial, g, nl.Gates[g].Kind, gv[g], ga[g], wv[g], wa[g])
			}
		}
	}
}

// signedZeroTable is coarseTable with every zero delay negative: the fused
// pass must still produce the op list's +0 arrivals.
func signedZeroTable(nl *netlist.Netlist, src *rng.Source) delay.Table {
	t := coarseTable(nl, src)
	for g, d := range t.Ps {
		if d == 0 {
			t.Ps[g] = math.Copysign(0, -1)
		}
	}
	return t
}

func TestFusedRunMatchesOpList(t *testing.T) {
	src := rng.New(81)
	tables := []struct {
		name string
		make func(*netlist.Netlist, *rng.Source) delay.Table
	}{{"random", randomTable}, {"coarse", coarseTable}, {"signed-zero", signedZeroTable}}
	for _, width := range []int{8, 16, 32} {
		for _, carry := range []bool{true, false} {
			nl := netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: width, UseCarry: carry}).Net
			eng := NewEngine(nl, randomTable(nl, src))
			if !eng.prog.fusedScalar() {
				t.Fatalf("width %d carry %v: RCA PUF datapath did not compile to the fused pass", width, carry)
			}
			for _, tc := range tables {
				tab := tc.make(nl, src)
				eng.SetDelays(tab)
				assertRunsIdentical(t, nl, eng, opListEngine(nl, tab), src, 30)
				assertRunsIdentical(t, nl, eng.Clone(), opListEngine(nl, tab), src, 10)
			}
		}
	}
}

func TestUnpairedNetlistsRunOpList(t *testing.T) {
	src := rng.New(82)
	// One chain: the bitsliced pass fuses it, the scalar Run falls back.
	rca := netlist.BuildRCANetlist(8)
	if p := programFor(rca); p.rca == nil || p.fusedScalar() || len(p.ops) != rca.LogicGates() {
		t.Fatal("standalone RCA did not compile to a matched, unfused scalar program")
	}
	tab := randomTable(rca, src)
	assertRunsIdentical(t, rca, NewEngine(rca, tab), opListEngine(rca, tab), src, 30)

	cla := netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 16, Adder: netlist.AdderCLA}).Net
	if programFor(cla).rca != nil {
		t.Fatal("CLA datapath compiled to a ripple-carry program")
	}
	for i := 0; i < 20; i++ {
		if programFor(randomNetlist(src, 60)).rca != nil {
			t.Fatal("random netlist compiled to a ripple-carry program")
		}
	}
}

// TestRunCounterParity pins what bench/pins.json counts per scalar pass:
// one Run adds 1 to sim_levelized_passes_total and len(nl.Order) to
// sim_gate_evals_total, on the fused and the op-list path alike.
func TestRunCounterParity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nl    *netlist.Netlist
		fused bool
	}{
		{"fused", netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 32, UseCarry: true}).Net, true},
		{"op-list", netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 32, Adder: netlist.AdderCLA}).Net, false},
	} {
		eng := NewEngine(tc.nl, unitDelays(tc.nl))
		if eng.prog.fusedScalar() != tc.fused {
			t.Fatalf("%s: fusedScalar() = %v", tc.name, !tc.fused)
		}
		in := make([]uint8, len(tc.nl.Inputs))
		passes, evals := levelizedPasses.Value(), gateEvals.Value()
		eng.Run(in)
		if d := levelizedPasses.Value() - passes; d != 1 {
			t.Fatalf("%s: sim_levelized_passes_total moved by %d per Run, want 1", tc.name, d)
		}
		if d := gateEvals.Value() - evals; d != uint64(len(tc.nl.Order)) {
			t.Fatalf("%s: sim_gate_evals_total moved by %d per Run, want %d", tc.name, d, len(tc.nl.Order))
		}
	}
}
