package sim

import (
	"math"
	"testing"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
	"pufatt/internal/rng"
)

// oracleRun is the textbook floating-mode evaluator Engine.Run must match:
// gate by gate in topological order, the value is the kind's Boolean
// function of the fanin values, and the arrival is the gate's delay plus
// the earliest arrival among fanins holding the controlling value if any
// does, else the latest fanin arrival. Inputs and constants arrive at 0.
func oracleRun(nl *netlist.Netlist, tab delay.Table, inputs []uint8) ([]uint8, []float64) {
	vals := make([]uint8, len(nl.Gates))
	arr := make([]float64, len(nl.Gates))
	for i, g := range nl.Inputs {
		vals[g] = inputs[i] & 1
	}
	for _, g := range nl.Order {
		gate := &nl.Gates[g]
		switch gate.Kind {
		case netlist.Input:
			continue
		case netlist.Const0, netlist.Const1:
			vals[g] = gate.Kind.Eval(nil)
			continue
		}
		in := make([]uint8, len(gate.Fanin))
		for i, f := range gate.Fanin {
			in[i] = vals[f]
		}
		vals[g] = gate.Kind.Eval(in)

		ctrl, hasCtrl := gate.Kind.ControllingValue()
		t, controlled := 0.0, false
		for _, f := range gate.Fanin {
			if hasCtrl && vals[f] == ctrl && (!controlled || arr[f] < t) {
				t, controlled = arr[f], true
			}
		}
		if !controlled {
			for i, f := range gate.Fanin {
				if i == 0 || arr[f] > t {
					t = arr[f]
				}
			}
		}
		arr[g] = t + tab.Ps[g]
	}
	return vals, arr
}

// coarseTable draws logic-gate delays from {0, 1, 2} ps, so equal arrivals
// (ties between the controlling-min and the max) are common.
func coarseTable(nl *netlist.Netlist, src *rng.Source) delay.Table {
	t := delay.Table{Ps: make([]float64, len(nl.Gates))}
	for g := range nl.Gates {
		switch nl.Gates[g].Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
		default:
			t.Ps[g] = float64(src.Uint64() % 3)
		}
	}
	return t
}

// assertRunMatchesOracle runs trials random input vectors through the engine
// and the oracle and compares every gate's value and arrival bits, plus the
// per-Run telemetry deltas.
func assertRunMatchesOracle(t *testing.T, nl *netlist.Netlist, eng *Engine, tab delay.Table, src *rng.Source, trials int) {
	t.Helper()
	in := make([]uint8, len(nl.Inputs))
	for trial := 0; trial < trials; trial++ {
		src.Bits(in)
		passes, evals := levelizedPasses.Value(), gateEvals.Value()
		vals, arr := eng.Run(in)
		if d := levelizedPasses.Value() - passes; d != 1 {
			t.Fatalf("sim_levelized_passes_total moved by %d per Run, want 1", d)
		}
		if d := gateEvals.Value() - evals; d != uint64(len(nl.Order)) {
			t.Fatalf("sim_gate_evals_total moved by %d per Run, want %d", d, len(nl.Order))
		}
		wantVals, wantArr := oracleRun(nl, tab, in)
		for g := range nl.Gates {
			if vals[g] != wantVals[g] || math.Float64bits(arr[g]) != math.Float64bits(wantArr[g]) {
				t.Fatalf("trial %d: gate %d (%s, %d fanins) = (%d, %v), oracle (%d, %v)",
					trial, g, nl.Gates[g].Kind, len(nl.Gates[g].Fanin),
					vals[g], arr[g], wantVals[g], wantArr[g])
			}
		}
	}
}

func TestRunMatchesOracle(t *testing.T) {
	src := rng.New(71)
	cases := []struct {
		name string
		nl   *netlist.Netlist
	}{
		{"puf-rca", netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 32, UseCarry: true}).Net},
		{"puf-cla", netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 16, Adder: netlist.AdderCLA}).Net},
	}
	for i := 0; i < 30; i++ {
		cases = append(cases, struct {
			name string
			nl   *netlist.Netlist
		}{"random", randomNetlist(src, 80)})
	}
	for _, tc := range cases {
		for _, tab := range []delay.Table{randomTable(tc.nl, src), coarseTable(tc.nl, src)} {
			assertRunMatchesOracle(t, tc.nl, NewEngine(tc.nl, tab), tab, src, 40)
		}
	}
}

// TestEnginesShareCompiledProgram pins that the compiled program is built
// once per netlist: scalar and bitsliced engines, their clones and SetDelays
// all run the same program, NewEngine allocates only the engine and its two
// scratch buffers, and NewSlicedEngine only the engine and its three.
func TestEnginesShareCompiledProgram(t *testing.T) {
	nl := netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 16}).Net
	src := rng.New(72)
	tabA, tabB := randomTable(nl, src), coarseTable(nl, src)
	eng := NewEngine(nl, tabA)
	other := NewEngine(nl, tabB)
	clone := eng.Clone()
	sliced := NewSlicedEngine(nl, tabA)
	for _, p := range []*program{other.prog, clone.prog, sliced.prog, sliced.Clone().prog} {
		if p != eng.prog {
			t.Fatal("engines over one netlist compiled separate programs")
		}
	}
	clone.SetDelays(tabB)
	assertRunMatchesOracle(t, nl, clone, tabB, src, 20)
	assertRunMatchesOracle(t, nl, eng, tabA, src, 20)
	assertRunMatchesOracle(t, nl, other, tabB, src, 20)

	var sink *Engine
	if n := testing.AllocsPerRun(50, func() { sink = NewEngine(nl, tabA) }); n != 3 {
		t.Fatalf("NewEngine made %v allocations, want 3 (engine, values, arrivals)", n)
	}
	_ = sink
	var slicedSink *SlicedEngine
	if n := testing.AllocsPerRun(50, func() { slicedSink = NewSlicedEngine(nl, tabA) }); n != 4 {
		t.Fatalf("NewSlicedEngine made %v allocations, want 4 (engine, const arrivals, values, arrival rows)", n)
	}
	_ = slicedSink
}
