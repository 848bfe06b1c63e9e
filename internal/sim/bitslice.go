package sim

import (
	"fmt"
	"math"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
)

// Bitsliced levelized evaluation: 64 challenges per machine word.
//
// The scalar Engine walks the netlist once per challenge. SlicedEngine walks
// it once per *block* of up to 64 challenges: every net carries a uint64
// value word (lane l = challenge l of the block) and, where needed, a
// 64-lane arrival row. Boolean evaluation lowers to one bitwise op per gate
// per block; the floating-mode arrival analysis lowers to a short branch-free
// float recurrence per lane.
//
// The branch elimination rests on an algebraic rewrite of the scalar rule.
// For a controlled gate (AND-class, controlling value c) the scalar engine
// computes
//
//	t = min over fanins with value c of their arrival   (if any fanin = c)
//	t = max over all fanin arrivals (floored at 0)      (otherwise)
//
// which is exactly
//
//	t = min( min_k(t_k + add[v_k]),  max_k(t_k) )
//
// with add[v] = 0 when v is the controlling value and +Inf otherwise: when
// the gate is controlled, every controlling fanin's arrival is ≤ the max, so
// the outer min picks the earliest controlling arrival; when it is not, every
// t_k + add[v_k] is +Inf and the max wins. All arrivals are ≥ 0 (delay tables
// clamp at build time) so the 0-floor is free, and no NaN can form (no 0·Inf,
// no Inf−Inf). The result is bit-identical to the scalar engine — the
// equivalence suite in core compares the two with Float64bits.
//
// Two further structural facts about the PUF datapath make the hot path
// cheap:
//
//   - Const-arrival gates. A gate whose fanins all arrive at fixed times has
//     a challenge-independent arrival (only its *value* varies). In a
//     full adder, s1 = Xor(a,b) and c1 = And(a,b) read only primary inputs
//     (arrival 0), so their arrivals are pure delay-table constants —
//     computed once per SetDelays, not per lane.
//
//   - Fused carry chains. The default datapath is two ripple-carry adders.
//     The netlist's one structural compile (compileProgram, shared with the
//     scalar Engine) recognises that shape exactly (matchRCA); the bitsliced
//     pass then runs a fused per-stage kernel that keeps the carry arrival
//     row in registers and stores only the rows anything downstream reads:
//     sums and carries. The scalar Engine runs the same recurrence on
//     scalars for the paired datapath (runPairedRCA). Netlists that are not
//     pure RCA chains (the carry-lookahead ALU, random test circuits) fall
//     back to exact generic per-gate kernels in both engines.
//
// Noise is *not* folded in here: per-challenge arbiter noise is drawn by the
// core batch layer from per-item rng.SubSeedN streams after the deltas are
// extracted, in the exact order of the scalar path, so determinism contracts
// (bit-identical at any worker count) carry over unchanged.

// Lanes is the bitslice width: challenges evaluated per RunBlock.
const Lanes = 64

var (
	posInf = math.Inf(1)
	// andAdd[v]/orAdd[v] turn a fanin (arrival t, value v) into a candidate
	// "earliest controlling input" term t + add[v]: finite exactly when v is
	// the gate's controlling value (AND: 0, OR: 1).
	andAdd = [2]float64{0, posInf}
	orAdd  = [2]float64{posInf, 0}
	// laneZeros is the arrival row of a chain's t=0 carry-in; read-only.
	laneZeros [Lanes]float64
)

// gateClass partitions gates by how the bitsliced pass handles them.
type gateClass uint8

const (
	// classZeroArr: primary inputs and constants — arrival identically 0.
	classZeroArr gateClass = iota
	// classConstArr: logic gates whose arrival is challenge-independent
	// (recomputed per delay table, never per lane).
	classConstArr
	// classVar: arrival computed per lane.
	classVar
)

// rcaStage is one matched full-adder: s1 = Xor(a,b), c1 = And(a,b),
// sum = Xor(s1,cin), c2 = And(s1,cin), cout = Or(c1,c2).
type rcaStage struct {
	a, b int // operand nets, arrival 0
	s1   int // const arrival
	c1   int // const arrival
	sum  int
	c2   int
	cout int // next stage's cin
}

// rcaChain is a maximal run of full adders linked carry-out → carry-in,
// starting from a zero-arrival carry-in net.
type rcaChain struct {
	cin    int
	stages []rcaStage
}

type rcaProgram struct {
	chains []rcaChain
	// paired marks the two-ALU special case: exactly two chains of equal
	// length sharing the same operand nets per stage and the same carry-in
	// net. Their value words are then identical at every stage (same
	// operands, same carries — only delays differ), so one word computation
	// and one bit extraction serve both chains, and the two chains'
	// independent float recurrences interleave in one lane loop. Only a
	// paired program takes the scalar Engine's fused pass.
	paired bool
}

// classifyGates classifies every gate's arrival. Classification is
// structural only (delay-independent); correctness never depends on it —
// the generic kernels are exact for every gate — it only decides which work
// can be hoisted out of the lane loops and whether matchRCA applies.
func classifyGates(nl *netlist.Netlist) []gateClass {
	class := make([]gateClass, len(nl.Gates))
	for _, g := range nl.Order {
		gate := &nl.Gates[g]
		switch gate.Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
			class[g] = classZeroArr
			continue
		}
		constArr := true
		switch gate.Kind {
		case netlist.Buf, netlist.Not, netlist.Xor, netlist.Xnor:
			// No controlling value: arrival = max(fanin arrivals) + d, so
			// the gate is const-arrival when every fanin is.
			for _, f := range gate.Fanin {
				if class[f] == classVar {
					constArr = false
					break
				}
			}
		default:
			// Controlled gates pick min-of-controlling vs max depending on
			// fanin *values*; their arrival is challenge-independent only in
			// the degenerate case where every fanin arrives at exactly 0
			// (either branch then yields 0).
			for _, f := range gate.Fanin {
				if class[f] != classZeroArr {
					constArr = false
					break
				}
			}
		}
		if constArr {
			class[g] = classConstArr
		} else {
			class[g] = classVar
		}
	}
	return class
}

// matchRCA recognises netlists that are exactly a disjoint set of standard
// full-adder ripple chains (the PUF datapath's two ALUs) and compiles them
// into the fused carry-chain program. It returns nil — generic fallback —
// unless *every* logic gate belongs to exactly one matched full adder and
// the adders link into clean chains.
func matchRCA(nl *netlist.Netlist, class []gateClass) *rcaProgram {
	otherFanin := func(g, not int) int {
		fi := nl.Gates[g].Fanin
		if fi[0] == not {
			return fi[1]
		}
		if fi[1] == not {
			return fi[0]
		}
		return -1
	}

	matched := make([]bool, len(nl.Gates))
	logic := 0
	type block struct {
		st  rcaStage
		cin int
	}
	var blocks []block
	byCout := make(map[int]int) // cout net → block index
	for s1 := range nl.Gates {
		g := &nl.Gates[s1]
		switch g.Kind {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		logic++
		if g.Kind != netlist.Xor || len(g.Fanin) != 2 {
			continue
		}
		a, b := g.Fanin[0], g.Fanin[1]
		if class[a] != classZeroArr || class[b] != classZeroArr {
			continue
		}
		fo := nl.Fanout[s1]
		if len(fo) != 2 {
			continue
		}
		sum, c2 := fo[0], fo[1]
		if nl.Gates[sum].Kind == netlist.And && nl.Gates[c2].Kind == netlist.Xor {
			sum, c2 = c2, sum
		}
		if nl.Gates[sum].Kind != netlist.Xor || nl.Gates[c2].Kind != netlist.And ||
			len(nl.Gates[sum].Fanin) != 2 || len(nl.Gates[c2].Fanin) != 2 {
			continue
		}
		cin := otherFanin(sum, s1)
		if cin < 0 || cin == s1 || otherFanin(c2, s1) != cin {
			continue
		}
		if len(nl.Fanout[c2]) != 1 {
			continue
		}
		cout := nl.Fanout[c2][0]
		if nl.Gates[cout].Kind != netlist.Or || len(nl.Gates[cout].Fanin) != 2 {
			continue
		}
		c1 := otherFanin(cout, c2)
		if c1 < 0 {
			continue
		}
		cg := &nl.Gates[c1]
		if cg.Kind != netlist.And || len(cg.Fanin) != 2 ||
			len(nl.Fanout[c1]) != 1 || nl.Fanout[c1][0] != cout {
			continue
		}
		if !(cg.Fanin[0] == a && cg.Fanin[1] == b) && !(cg.Fanin[0] == b && cg.Fanin[1] == a) {
			continue
		}
		ok := true
		for _, m := range []int{s1, sum, c1, c2, cout} {
			if matched[m] {
				ok = false
				break
			}
		}
		if !ok {
			return nil // overlapping matches: not a clean chain structure
		}
		for _, m := range []int{s1, sum, c1, c2, cout} {
			matched[m] = true
		}
		blocks = append(blocks, block{
			st:  rcaStage{a: a, b: b, s1: s1, c1: c1, sum: sum, c2: c2, cout: cout},
			cin: cin,
		})
		byCout[cout] = len(blocks) - 1
	}
	if 5*len(blocks) != logic {
		return nil // some logic falls outside the full-adder pattern
	}

	// Link blocks into chains: a block whose cin is another block's cout
	// follows it; a block whose cin arrives at t=0 starts a chain.
	next := make(map[int]int)
	hasPred := make([]bool, len(blocks))
	for i, b := range blocks {
		if j, ok := byCout[b.cin]; ok {
			if _, dup := next[j]; dup {
				return nil // one carry feeding two stages: a tree, not a chain
			}
			next[j] = i
			hasPred[i] = true
		} else if class[b.cin] != classZeroArr {
			return nil // carry-in from unmodelled logic
		}
	}
	prog := &rcaProgram{}
	linked := 0
	for i := range blocks {
		if hasPred[i] {
			continue
		}
		ch := rcaChain{cin: blocks[i].cin}
		for j := i; ; {
			ch.stages = append(ch.stages, blocks[j].st)
			linked++
			k, ok := next[j]
			if !ok {
				break
			}
			j = k
		}
		prog.chains = append(prog.chains, ch)
	}
	if linked != len(blocks) {
		return nil
	}
	if len(prog.chains) == 2 {
		a, b := &prog.chains[0], &prog.chains[1]
		if a.cin == b.cin && len(a.stages) == len(b.stages) {
			prog.paired = true
			for i := range a.stages {
				if a.stages[i].a != b.stages[i].a || a.stages[i].b != b.stages[i].b {
					prog.paired = false
					break
				}
			}
		}
	}
	return prog
}

// SlicedEngine evaluates the levelized floating-mode analysis for up to
// Lanes challenges per pass over a fixed netlist/delay-table pair. It reuses
// internal buffers across calls; a SlicedEngine is not safe for concurrent
// use (Clone it for parallel evaluation).
type SlicedEngine struct {
	nl     *netlist.Netlist
	delays delay.Table
	prog   *program
	// constArr holds challenge-independent arrivals: 0 for classZeroArr,
	// the delay-table-derived constant for classConstArr; unused for
	// classVar. Recomputed by SetDelays.
	constArr []float64
	// values holds one value word per net: bit l = the net's value for
	// challenge lane l.
	values []uint64
	// arrival holds per-lane arrival rows, lane-major (arrival[g*Lanes+l]).
	// Only rows of stored gates are maintained.
	arrival []float64
}

// NewSlicedEngine returns a bitsliced engine over the netlist with the given
// per-gate delay table.
func NewSlicedEngine(nl *netlist.Netlist, delays delay.Table) *SlicedEngine {
	if len(delays.Ps) != len(nl.Gates) {
		panic(fmt.Sprintf("sim: delay table of %d entries for %d gates", len(delays.Ps), len(nl.Gates)))
	}
	e := &SlicedEngine{
		nl:       nl,
		prog:     programFor(nl),
		constArr: make([]float64, len(nl.Gates)),
		values:   make([]uint64, len(nl.Gates)),
		arrival:  make([]float64, len(nl.Gates)*Lanes),
	}
	e.initConstValues()
	e.SetDelays(delays)
	return e
}

func (e *SlicedEngine) initConstValues() {
	for g := range e.nl.Gates {
		switch e.nl.Gates[g].Kind {
		case netlist.Const0:
			e.values[g] = 0
		case netlist.Const1:
			e.values[g] = ^uint64(0)
		}
	}
}

// SetDelays replaces the delay table (e.g. for a new operating corner) and
// recomputes the challenge-independent arrivals.
func (e *SlicedEngine) SetDelays(delays delay.Table) {
	if len(delays.Ps) != len(e.nl.Gates) {
		panic(fmt.Sprintf("sim: delay table of %d entries for %d gates", len(delays.Ps), len(e.nl.Gates)))
	}
	e.delays = delays
	for _, g := range e.nl.Order {
		switch e.prog.class[g] {
		case classZeroArr:
			e.constArr[g] = 0
		case classConstArr:
			// Scalar semantics: max over fanin arrivals, floored at 0. For
			// AND-class const gates every fanin arrives at 0, where the
			// controlled/uncontrolled branches coincide.
			t := 0.0
			for _, f := range e.nl.Gates[g].Fanin {
				if e.constArr[f] > t {
					t = e.constArr[f]
				}
			}
			e.constArr[g] = t + delays.Ps[g]
		}
	}
}

// Clone returns a new SlicedEngine over the same (immutable, shared) netlist
// and program with private scratch, for parallel evaluation.
func (e *SlicedEngine) Clone() *SlicedEngine {
	c := &SlicedEngine{
		nl:       e.nl,
		delays:   e.delays,
		prog:     e.prog,
		constArr: append([]float64(nil), e.constArr...),
		values:   make([]uint64, len(e.nl.Gates)),
		arrival:  make([]float64, len(e.nl.Gates)*Lanes),
	}
	c.initConstValues()
	return c
}

// Netlist returns the engine's netlist (shared, read-only).
func (e *SlicedEngine) Netlist() *netlist.Netlist { return e.nl }

// GatesPerRun returns how many gates one lane of one RunBlock evaluates —
// the per-challenge denominator of the gate-evals/s metric, matching the
// scalar engine.
func (e *SlicedEngine) GatesPerRun() int { return len(e.nl.Order) }

// Fused reports whether the netlist compiled to the fused ripple-carry
// program (vs the generic per-gate fallback).
func (e *SlicedEngine) Fused() bool { return e.prog.rca != nil }

// RunBlock evaluates lanes challenges in one pass. inputs[i] packs primary
// input i across the block: bit l is input i's value for challenge lane l.
// Lanes ≥ lanes (the tail of a short block) must be packed as zero; they are
// computed but carry no meaning and must not be read back.
//
// Aliasing contract: results read via Value/ArrivalLanes are engine-owned
// and overwritten by the next RunBlock.
func (e *SlicedEngine) RunBlock(inputs []uint64, lanes int) {
	nl := e.nl
	if len(inputs) != len(nl.Inputs) {
		panic(fmt.Sprintf("sim: %d input words for netlist with %d inputs", len(inputs), len(nl.Inputs)))
	}
	if lanes < 1 || lanes > Lanes {
		panic(fmt.Sprintf("sim: RunBlock of %d lanes", lanes))
	}
	for i, g := range nl.Inputs {
		e.values[g] = inputs[i]
	}
	if e.prog.rca != nil {
		e.runRCA()
	} else {
		e.runGeneric()
	}
	bitslicePasses.Inc()
	// Effective work: every active lane is a full levelized evaluation.
	gateEvals.Add(uint64(len(nl.Order)) * uint64(lanes))
}

// Value returns net g's value for challenge lane l of the last RunBlock.
func (e *SlicedEngine) Value(g, l int) uint8 {
	return uint8(e.values[g]>>l) & 1
}

// ArrivalLanes returns net g's per-lane arrival row for the last RunBlock,
// or nil when the gate's arrival is challenge-independent — read it from
// ConstArrival instead. Rows are engine-owned scratch (see RunBlock).
func (e *SlicedEngine) ArrivalLanes(g int) []float64 {
	if !e.prog.stored[g] {
		return nil
	}
	return e.arrival[g*Lanes : g*Lanes+Lanes : g*Lanes+Lanes]
}

// ConstArrival returns the challenge-independent arrival of a gate for which
// ArrivalLanes returned nil. It panics on elided gates (see ArrivalElided).
func (e *SlicedEngine) ConstArrival(g int) float64 {
	if e.prog.stored[g] || e.prog.class[g] == classVar {
		panic(fmt.Sprintf("sim: ConstArrival of variable-arrival gate %d", g))
	}
	return e.constArr[g]
}

// ArrivalElided reports whether gate g's arrival is not recoverable from
// this engine: the fused carry-chain program keeps only the rows anything
// downstream reads (sums, carries, const-arrival gates), eliding interior
// full-adder nets. Primary outputs are never elided.
func (e *SlicedEngine) ArrivalElided(g int) bool {
	return !e.prog.stored[g] && e.prog.class[g] == classVar
}

// runRCA executes the fused carry-chain program: per stage, five gates'
// values in five bitwise ops and the only two arrival rows anything reads
// (sum, carry-out) in one register-resident lane loop.
func (e *SlicedEngine) runRCA() {
	if e.prog.rca.paired {
		e.runPairedRCA()
		return
	}
	d := e.delays.Ps
	for ci := range e.prog.rca.chains {
		ch := &e.prog.rca.chains[ci]
		carryWord := e.values[ch.cin]
		carry := &laneZeros // the chain's carry-in arrives at t=0 in every lane
		for si := range ch.stages {
			st := &ch.stages[si]
			wa, wb := e.values[st.a], e.values[st.b]
			ws1 := wa ^ wb
			wc1 := wa & wb
			wc2 := ws1 & carryWord
			wco := wc1 | wc2
			e.values[st.s1] = ws1
			e.values[st.c1] = wc1
			e.values[st.c2] = wc2
			e.values[st.sum] = ws1 ^ carryWord
			e.values[st.cout] = wco
			sumRow := (*[Lanes]float64)(e.arrival[st.sum*Lanes:])
			coutRow := (*[Lanes]float64)(e.arrival[st.cout*Lanes:])
			fusedFAStage(carry, ws1, carryWord, wc1, wc2,
				e.constArr[st.s1], e.constArr[st.c1],
				d[st.sum], d[st.c2], d[st.cout], sumRow, coutRow)
			carry = coutRow
			carryWord = wco
		}
	}
}

// fusedFAStage computes the sum and carry-out arrival lanes of one
// full-adder stage. as1/ac1 are the (challenge-independent) arrivals of
// s1 = Xor(a,b) and c1 = And(a,b); the carry row is the previous stage's
// carry-out arrivals. Derivation per lane, exact vs the scalar engine:
//
//	sum  = Xor(s1, cin):  no controlling value → max(as1, tc) + dSum
//	c2   = And(s1, cin):  min(min-of-controlling, max) + dC2 (andAdd trick)
//	cout = Or(c1, c2):    min(min-of-controlling, max) + dCout (orAdd trick)
func fusedFAStage(carry *[Lanes]float64, ws1, wc, wc1, wc2 uint64,
	as1, ac1, dSum, dC2, dCout float64, sumRow, coutRow *[Lanes]float64) {
	for l := 0; l < Lanes; l++ {
		tc := carry[l]
		m := max(as1, tc)
		sumRow[l] = m + dSum
		t2 := min(min(as1+andAdd[ws1&1], tc+andAdd[wc&1]), m) + dC2
		coutRow[l] = min(min(ac1+orAdd[wc1&1], t2+orAdd[wc2&1]), max(ac1, t2)) + dCout
		ws1 >>= 1
		wc >>= 1
		wc1 >>= 1
		wc2 >>= 1
	}
}

// runPairedRCA is runRCA for the two-ALU race: both chains see the same
// operand and carry *values*, so the word layer runs once per stage and the
// lane loop advances both chains together — half the bit extraction, and
// two independent dependency chains per iteration for the CPU to overlap.
func (e *SlicedEngine) runPairedRCA() {
	d := e.delays.Ps
	chA := &e.prog.rca.chains[0]
	chB := &e.prog.rca.chains[1]
	carryWord := e.values[chA.cin]
	carrA, carrB := &laneZeros, &laneZeros
	for si := range chA.stages {
		stA, stB := &chA.stages[si], &chB.stages[si]
		wa, wb := e.values[stA.a], e.values[stA.b]
		ws1 := wa ^ wb
		wc1 := wa & wb
		wc2 := ws1 & carryWord
		wco := wc1 | wc2
		sumWord := ws1 ^ carryWord
		e.values[stA.s1], e.values[stB.s1] = ws1, ws1
		e.values[stA.c1], e.values[stB.c1] = wc1, wc1
		e.values[stA.c2], e.values[stB.c2] = wc2, wc2
		e.values[stA.sum], e.values[stB.sum] = sumWord, sumWord
		e.values[stA.cout], e.values[stB.cout] = wco, wco
		sumA := (*[Lanes]float64)(e.arrival[stA.sum*Lanes:])
		coutA := (*[Lanes]float64)(e.arrival[stA.cout*Lanes:])
		sumB := (*[Lanes]float64)(e.arrival[stB.sum*Lanes:])
		coutB := (*[Lanes]float64)(e.arrival[stB.cout*Lanes:])
		pairedFAStage(carrA, carrB, ws1, carryWord, wc1, wc2,
			e.constArr[stA.s1], e.constArr[stA.c1], d[stA.sum], d[stA.c2], d[stA.cout],
			e.constArr[stB.s1], e.constArr[stB.c1], d[stB.sum], d[stB.c2], d[stB.cout],
			sumA, coutA, sumB, coutB)
		carrA, carrB = coutA, coutB
		carryWord = wco
	}
}

// pairedFAStage is fusedFAStage over both ALUs' same-index stages at once.
// The per-stage constant terms as1 + andAdd[bit] and ac1 + orAdd[bit] take
// only two values each, so they are precomputed as two-entry selects (the
// sums are bit-exact: t + 0 is identity for the non-negative arrivals here,
// t + Inf is Inf).
func pairedFAStage(carrA, carrB *[Lanes]float64, ws1, wc, wc1, wc2 uint64,
	as1A, ac1A, dSumA, dC2A, dCoutA float64,
	as1B, ac1B, dSumB, dC2B, dCoutB float64,
	sumA, coutA, sumB, coutB *[Lanes]float64) {
	s1SelA := [2]float64{as1A, posInf}
	s1SelB := [2]float64{as1B, posInf}
	c1SelA := [2]float64{posInf, ac1A}
	c1SelB := [2]float64{posInf, ac1B}
	for l := 0; l < Lanes; l++ {
		b1 := ws1 & 1
		b2 := wc & 1
		b3 := wc1 & 1
		b4 := wc2 & 1
		ws1 >>= 1
		wc >>= 1
		wc1 >>= 1
		wc2 >>= 1
		tcA := carrA[l]
		mA := max(as1A, tcA)
		sumA[l] = mA + dSumA
		t2A := min(min(s1SelA[b1], tcA+andAdd[b2]), mA) + dC2A
		coutA[l] = min(min(c1SelA[b3], t2A+orAdd[b4]), max(ac1A, t2A)) + dCoutA
		tcB := carrB[l]
		mB := max(as1B, tcB)
		sumB[l] = mB + dSumB
		t2B := min(min(s1SelB[b1], tcB+andAdd[b2]), mB) + dC2B
		coutB[l] = min(min(c1SelB[b3], t2B+orAdd[b4]), max(ac1B, t2B)) + dCoutB
	}
}

// runGeneric is the exact fallback for netlists that are not pure
// ripple-carry chains: per-gate bitsliced kernels in topological order.
func (e *SlicedEngine) runGeneric() {
	nl := e.nl
	for _, g := range nl.Order {
		gate := &nl.Gates[g]
		switch e.prog.class[g] {
		case classZeroArr:
			continue // inputs installed by RunBlock, constants preset
		case classConstArr:
			e.values[g] = e.valueWord(gate)
			continue
		}
		e.values[g] = e.valueWord(gate)
		e.arrVar(g, gate)
	}
}

// valueWord evaluates one gate's value word from its fanin words.
func (e *SlicedEngine) valueWord(gate *netlist.Gate) uint64 {
	var w uint64
	switch gate.Kind {
	case netlist.Buf:
		w = e.values[gate.Fanin[0]]
	case netlist.Not:
		w = ^e.values[gate.Fanin[0]]
	case netlist.And, netlist.Nand:
		w = ^uint64(0)
		for _, f := range gate.Fanin {
			w &= e.values[f]
		}
		if gate.Kind == netlist.Nand {
			w = ^w
		}
	case netlist.Or, netlist.Nor:
		for _, f := range gate.Fanin {
			w |= e.values[f]
		}
		if gate.Kind == netlist.Nor {
			w = ^w
		}
	case netlist.Xor, netlist.Xnor:
		for _, f := range gate.Fanin {
			w ^= e.values[f]
		}
		if gate.Kind == netlist.Xnor {
			w = ^w
		}
	}
	return w
}

// faninRow returns fanin f's arrival lanes, broadcasting a constant arrival
// into scratch when the fanin has no materialised row.
func (e *SlicedEngine) faninRow(f int, scratch *[Lanes]float64) *[Lanes]float64 {
	if e.prog.stored[f] {
		return (*[Lanes]float64)(e.arrival[f*Lanes:])
	}
	c := e.constArr[f]
	for l := range scratch {
		scratch[l] = c
	}
	return scratch
}

// arrVar computes the arrival row of a variable-arrival gate.
func (e *SlicedEngine) arrVar(g int, gate *netlist.Gate) {
	out := (*[Lanes]float64)(e.arrival[g*Lanes:])
	d := e.delays.Ps[g]
	var s0, s1 [Lanes]float64
	switch gate.Kind {
	case netlist.Buf, netlist.Not:
		// classVar with one fanin ⇒ the fanin itself is variable-arrival.
		in := (*[Lanes]float64)(e.arrival[gate.Fanin[0]*Lanes:])
		for l := 0; l < Lanes; l++ {
			out[l] = in[l] + d
		}
	case netlist.Xor, netlist.Xnor:
		if len(gate.Fanin) != 2 {
			e.arrNary(g, gate, out)
			return
		}
		t0 := e.faninRow(gate.Fanin[0], &s0)
		t1 := e.faninRow(gate.Fanin[1], &s1)
		for l := 0; l < Lanes; l++ {
			out[l] = max(t0[l], t1[l]) + d
		}
	default: // And, Or, Nand, Nor — same timing, value inversion is elsewhere
		if len(gate.Fanin) != 2 {
			e.arrNary(g, gate, out)
			return
		}
		add := &andAdd
		if gate.Kind == netlist.Or || gate.Kind == netlist.Nor {
			add = &orAdd
		}
		f0, f1 := gate.Fanin[0], gate.Fanin[1]
		t0 := e.faninRow(f0, &s0)
		t1 := e.faninRow(f1, &s1)
		w0, w1 := e.values[f0], e.values[f1]
		for l := 0; l < Lanes; l++ {
			a0, a1 := t0[l], t1[l]
			m := max(a0, a1)
			out[l] = min(min(a0+add[w0&1], a1+add[w1&1]), m) + d
			w0 >>= 1
			w1 >>= 1
		}
	}
}

// arrNary replicates the scalar fanin scan per lane for wide (n-ary) gates —
// the carry-lookahead adder's group terms take up to five fanins.
func (e *SlicedEngine) arrNary(g int, gate *netlist.Gate, out *[Lanes]float64) {
	d := e.delays.Ps[g]
	ctrl, hasCtrl := gate.Kind.ControllingValue()
	for l := 0; l < Lanes; l++ {
		controlled := false
		tCtrl := posInf
		tMax := 0.0
		for _, f := range gate.Fanin {
			var ta float64
			if e.prog.stored[f] {
				ta = e.arrival[f*Lanes+l]
			} else {
				ta = e.constArr[f]
			}
			if hasCtrl && uint8(e.values[f]>>l)&1 == ctrl {
				controlled = true
				if ta < tCtrl {
					tCtrl = ta
				}
			}
			if ta > tMax {
				tMax = ta
			}
		}
		if controlled {
			out[l] = tCtrl + d
		} else {
			out[l] = tMax + d
		}
	}
}
