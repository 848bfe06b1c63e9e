package sim

import (
	"fmt"
	"math"
	"testing"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
	"pufatt/internal/rng"
)

// transposeInputs packs per-challenge input vectors into lane words (bit l =
// challenge l), zero-filling missing tail lanes.
func transposeInputs(challenges [][]uint8, nIn int) []uint64 {
	words := make([]uint64, nIn)
	for j := 0; j < nIn; j++ {
		var w uint64
		for l, ch := range challenges {
			w |= uint64(ch[j]&1) << l
		}
		words[j] = w
	}
	return words
}

// assertBlockMatchesScalar runs the same block through the scalar and sliced
// engines and compares every gate's value and arrival bit-for-bit per lane.
func assertBlockMatchesScalar(t *testing.T, nl *netlist.Netlist, tab delay.Table, scalar *Engine, sliced *SlicedEngine, challenges [][]uint8) {
	t.Helper()
	for _, g := range nl.Outputs {
		if sliced.ArrivalElided(g) {
			t.Fatalf("primary output net %d has no recoverable arrival", g)
		}
	}
	sliced.RunBlock(transposeInputs(challenges, len(nl.Inputs)), len(challenges))
	for l, ch := range challenges {
		vals, arr := scalar.Run(ch)
		for g := range nl.Gates {
			if got := sliced.Value(g, l); got != vals[g] {
				t.Fatalf("lane %d net %d: value %d, want %d", l, g, got, vals[g])
			}
			if sliced.ArrivalElided(g) {
				continue // fused interior net: arrival intentionally not kept
			}
			var got float64
			if row := sliced.ArrivalLanes(g); row != nil {
				got = row[l]
			} else {
				got = sliced.ConstArrival(g)
			}
			if math.Float64bits(got) != math.Float64bits(arr[g]) {
				t.Fatalf("lane %d net %d (%v): arrival %v, want %v",
					l, g, nl.Gates[g].Kind, got, arr[g])
			}
		}
	}
}

func randomChallenges(src *rng.Source, n, bits int) [][]uint8 {
	out := make([][]uint8, n)
	for k := range out {
		out[k] = make([]uint8, bits)
		src.Bits(out[k])
	}
	return out
}

func TestSlicedMatchesScalarPUFDatapath(t *testing.T) {
	dp := netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 32, UseCarry: true})
	nl := dp.Net
	tab := randomTable(nl, rng.New(11))
	scalar := NewEngine(nl, tab)
	sliced := NewSlicedEngine(nl, tab)
	if !sliced.Fused() {
		t.Fatal("RCA PUF datapath did not compile to the fused carry-chain program")
	}
	src := rng.New(12)
	for _, lanes := range []int{1, 3, 63, Lanes} {
		assertBlockMatchesScalar(t, nl, tab, scalar, sliced,
			randomChallenges(src, lanes, len(nl.Inputs)))
	}
}

func TestSlicedMatchesScalarCLADatapath(t *testing.T) {
	dp := netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 16, Adder: netlist.AdderCLA})
	nl := dp.Net
	tab := randomTable(nl, rng.New(21))
	scalar := NewEngine(nl, tab)
	sliced := NewSlicedEngine(nl, tab)
	if sliced.Fused() {
		t.Fatal("CLA datapath unexpectedly matched the ripple-carry program")
	}
	src := rng.New(22)
	for _, lanes := range []int{1, 17, Lanes} {
		assertBlockMatchesScalar(t, nl, tab, scalar, sliced,
			randomChallenges(src, lanes, len(nl.Inputs)))
	}
}

func TestSlicedMatchesScalarStandaloneAdders(t *testing.T) {
	for _, tc := range []struct {
		name string
		nl   *netlist.Netlist
	}{
		{"rca8", netlist.BuildRCANetlist(8)},
		{"cla8", netlist.BuildCLANetlist(8)},
		{"fa", netlist.BuildFullAdderNetlist()},
		{"alu4", netlist.BuildALUNetlist(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := randomTable(tc.nl, rng.New(31))
			scalar := NewEngine(tc.nl, tab)
			sliced := NewSlicedEngine(tc.nl, tab)
			src := rng.New(32)
			assertBlockMatchesScalar(t, tc.nl, tab, scalar, sliced,
				randomChallenges(src, Lanes, len(tc.nl.Inputs)))
		})
	}
}

// randomNetlist builds an arbitrary DAG over every gate kind, constants
// included, with arities 1 (Buf, Not) and 2–6 (the rest), to exercise the
// generic kernels far from adder structure.
func randomNetlist(src *rng.Source, nGates int) *netlist.Netlist {
	b := netlist.NewBuilder()
	var nets []int
	for i := 0; i < 6; i++ {
		nets = append(nets, b.Input(fmt.Sprintf("i%d", i)))
	}
	nets = append(nets, b.Const(0), b.Const(1))
	kinds := []netlist.Kind{
		netlist.Buf, netlist.Not, netlist.And, netlist.Or,
		netlist.Nand, netlist.Nor, netlist.Xor, netlist.Xnor,
		netlist.Const0, netlist.Const1,
	}
	for i := 0; i < nGates; i++ {
		k := kinds[src.Uint64()%uint64(len(kinds))]
		if k == netlist.Const0 || k == netlist.Const1 {
			nets = append(nets, b.Named(k, fmt.Sprintf("k%d", i)))
			continue
		}
		arity := 1
		if k != netlist.Buf && k != netlist.Not {
			arity = 2 + int(src.Uint64()%5)
		}
		fi := make([]int, arity)
		for j := range fi {
			fi[j] = nets[src.Uint64()%uint64(len(nets))]
		}
		nets = append(nets, b.Gate(k, fi...))
	}
	b.Output("y", nets[len(nets)-1])
	return b.MustBuild()
}

func TestSlicedMatchesScalarRandomNetlists(t *testing.T) {
	src := rng.New(41)
	for trial := 0; trial < 20; trial++ {
		nl := randomNetlist(src, 60)
		tab := randomTable(nl, src)
		scalar := NewEngine(nl, tab)
		sliced := NewSlicedEngine(nl, tab)
		assertBlockMatchesScalar(t, nl, tab, scalar, sliced,
			randomChallenges(src, Lanes, len(nl.Inputs)))
	}
}

func TestSlicedSetDelaysAndClone(t *testing.T) {
	dp := netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 16})
	nl := dp.Net
	tabA := randomTable(nl, rng.New(51))
	tabB := randomTable(nl, rng.New(52))
	scalar := NewEngine(nl, tabA)
	sliced := NewSlicedEngine(nl, tabA)
	src := rng.New(53)
	assertBlockMatchesScalar(t, nl, tabA, scalar, sliced,
		randomChallenges(src, Lanes, len(nl.Inputs)))

	// A clone taken now keeps table A even after the original moves to B.
	clone := sliced.Clone()
	scalar.SetDelays(tabB)
	sliced.SetDelays(tabB)
	assertBlockMatchesScalar(t, nl, tabB, scalar, sliced,
		randomChallenges(src, Lanes, len(nl.Inputs)))
	scalarA := NewEngine(nl, tabA)
	assertBlockMatchesScalar(t, nl, tabA, scalarA, clone,
		randomChallenges(src, Lanes, len(nl.Inputs)))
}

func BenchmarkSlicedBlockRCA(b *testing.B) {
	dp := netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 32, UseCarry: true})
	nl := dp.Net
	eng := NewSlicedEngine(nl, randomTable(nl, rng.New(71)))
	src := rng.New(72)
	words := make([]uint64, len(nl.Inputs))
	for i := range words {
		words[i] = src.Uint64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunBlock(words, Lanes)
	}
	perChallenge := float64(b.Elapsed().Nanoseconds()) / float64(b.N*Lanes)
	b.ReportMetric(perChallenge, "ns/challenge")
	b.ReportMetric(float64(eng.GatesPerRun())*1e9/perChallenge, "gate-evals/s")
}

func BenchmarkSlicedBlockCLA(b *testing.B) {
	dp := netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 32, UseCarry: true, Adder: netlist.AdderCLA})
	nl := dp.Net
	eng := NewSlicedEngine(nl, randomTable(nl, rng.New(73)))
	src := rng.New(74)
	words := make([]uint64, len(nl.Inputs))
	for i := range words {
		words[i] = src.Uint64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunBlock(words, Lanes)
	}
	perChallenge := float64(b.Elapsed().Nanoseconds()) / float64(b.N*Lanes)
	b.ReportMetric(perChallenge, "ns/challenge")
}

// BenchmarkEngineRun times one scalar Engine.Run over the 32-bit PUF
// datapath: the fused paired pass for the ripple-carry adders, the op list
// for carry-lookahead.
func BenchmarkEngineRun(b *testing.B) {
	for _, tc := range []struct {
		name  string
		adder netlist.AdderKind
	}{{"rca", netlist.AdderRCA}, {"cla", netlist.AdderCLA}} {
		b.Run(tc.name, func(b *testing.B) {
			nl := netlist.BuildPUFDatapath(netlist.PUFDatapathConfig{Width: 32, UseCarry: true, Adder: tc.adder}).Net
			eng := NewEngine(nl, randomTable(nl, rng.New(75)))
			ins := randomChallenges(rng.New(76), 64, len(nl.Inputs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Run(ins[i%len(ins)])
			}
			b.ReportMetric(float64(len(nl.Order))*float64(b.N)/b.Elapsed().Seconds(), "gate-evals/s")
		})
	}
}
