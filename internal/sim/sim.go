// Package sim provides the gate-level timing engines used to evaluate the
// ALU PUF.
//
// The levelized engine (Engine) performs floating-mode arrival-time
// analysis in a single topological pass: for every net it computes both its
// Boolean value and the time at which that value becomes determined, taking
// controlling values into account (an AND output is determined as soon as
// its earliest 0-input arrives). It runs a compiled form of the netlist,
// built once per netlist and shared by every engine over it: when the
// netlist is the paper's paired ripple-carry datapath, one fused pass per
// full-adder stage (runPairedRCA); otherwise a flat op list with int32
// fanin indices and a dedicated two-input kernel. This is the per-query
// engine (device queries, the verifier's emulation) because it is
// allocation-free per query and far faster than event-driven simulation.
// SlicedEngine (bitslice.go) runs the same analysis from the same compiled
// program for 64 challenges per pass for bulk batches.
//
// The event-driven engine (EventSim) is a classic inertial-delay logic
// simulator with a time-ordered event queue. It reproduces actual signal
// transitions, including glitches on the ripple-carry chain, and supports
// "latch at time T" semantics: reading every net's value at an arbitrary
// cutoff time. That is exactly the behaviour needed to model the
// overclocking attack of Section 4.2, where a too-short clock period latches
// the PUF output flip-flops before the adder has settled.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"pufatt/internal/delay"
	"pufatt/internal/netlist"
)

// opKind selects the kernel of one compiled op. Nand, Nor, Xnor and Not are
// And, Or, Xor and Buf with op.inv set; Const1 is Const0 inverted.
type opKind uint8

const (
	opAnd2 opKind = iota // two-input kernels: fanins a, b
	opOr2
	opXor2
	opBuf // one fanin: a
	opConst
	opNary // any other fanin count: prog.fanin[a : a+b], gate kind in op.nk
)

// op is one gate of the compiled program, 16 bytes.
type op struct {
	kind opKind
	inv  uint8 // XOR-ed into the value: 1 for the inverting kinds
	nk   uint8 // netlist.Kind, read by the n-ary kernel only
	out  int32
	a, b int32
}

// program is the compiled, delay-independent form of a netlist that both
// levelized engines run. It is built once per netlist (see programFor) and
// shared, read-only, by every Engine, SlicedEngine and clone over that
// netlist.
type program struct {
	// ops are the gates Engine.Run evaluates one by one, in topological
	// order, as flat ops: every logic gate, or, when the fused scalar pass
	// covers the full adders (fusedScalar), only the rest — the constants.
	ops   []op
	fanin []int32 // fanin lists of opNary ops
	// class, stored and rca are the structural analysis (bitslice.go):
	// which arrivals are challenge-independent, which the bitsliced pass
	// keeps as lane rows, and the matched ripple-carry chains.
	class  []gateClass
	stored []bool
	rca    *rcaProgram
}

// fusedScalar reports whether Engine.Run evaluates the full adders with
// the fused paired pass (runPairedRCA) instead of the op list.
func (p *program) fusedScalar() bool { return p.rca != nil && p.rca.paired }

type programKey struct{}

// programFor returns the netlist's compiled program, building it on first
// use.
func programFor(nl *netlist.Netlist) *program {
	return nl.Derived(programKey{}, func(nl *netlist.Netlist) any { return compileProgram(nl) }).(*program)
}

// compileProgram classifies the gates, matches the ripple-carry chains and
// lowers every logic gate the fused scalar pass does not write to ops.
func compileProgram(nl *netlist.Netlist) *program {
	p := &program{class: classifyGates(nl), stored: make([]bool, len(nl.Gates))}
	p.rca = matchRCA(nl, p.class)
	if p.rca == nil {
		for g, c := range p.class {
			p.stored[g] = c == classVar
		}
		p.ops, p.fanin = compileOps(nl, nil)
		return p
	}
	var fused []bool
	if p.rca.paired {
		fused = make([]bool, len(nl.Gates))
	}
	for _, ch := range p.rca.chains {
		for _, st := range ch.stages {
			p.stored[st.sum] = true
			p.stored[st.cout] = true
			if fused != nil {
				for _, g := range [...]int{st.s1, st.c1, st.sum, st.c2, st.cout} {
					fused[g] = true
				}
			}
		}
	}
	p.ops, p.fanin = compileOps(nl, fused)
	return p
}

// compileOps lowers the logic gates in topological order to flat ops,
// leaving out the gates marked in skip (nil skips none).
func compileOps(nl *netlist.Netlist, skip []bool) (ops []op, fanin []int32) {
	for _, g := range nl.Order {
		gate := &nl.Gates[g]
		if gate.Kind == netlist.Input || skip != nil && skip[g] {
			continue
		}
		o := op{nk: uint8(gate.Kind), out: int32(g)}
		switch gate.Kind {
		case netlist.Const0, netlist.Const1:
			o.kind = opConst
		case netlist.Buf, netlist.Not:
			o.kind, o.a = opBuf, int32(gate.Fanin[0])
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor:
			if len(gate.Fanin) == 2 {
				o.a, o.b = int32(gate.Fanin[0]), int32(gate.Fanin[1])
				switch gate.Kind {
				case netlist.And, netlist.Nand:
					o.kind = opAnd2
				case netlist.Or, netlist.Nor:
					o.kind = opOr2
				default:
					o.kind = opXor2
				}
				break
			}
			fallthrough
		default:
			o.kind, o.a, o.b = opNary, int32(len(fanin)), int32(len(gate.Fanin))
			for _, f := range gate.Fanin {
				fanin = append(fanin, int32(f))
			}
		}
		switch gate.Kind {
		case netlist.Not, netlist.Nand, netlist.Nor, netlist.Xnor, netlist.Const1:
			o.inv = 1
		}
		ops = append(ops, o)
	}
	return ops, fanin
}

// Engine computes values and arrival times for a fixed netlist/delay-table
// pair using the levelized floating-mode analysis. It reuses internal
// buffers across calls; an Engine is not safe for concurrent use.
type Engine struct {
	nl      *netlist.Netlist
	prog    *program
	delays  delay.Table
	values  []uint8
	arrival []float64
}

// NewEngine returns a levelized engine over the netlist with the given
// per-gate delay table.
func NewEngine(nl *netlist.Netlist, delays delay.Table) *Engine {
	if len(delays.Ps) != len(nl.Gates) {
		panic(fmt.Sprintf("sim: delay table of %d entries for %d gates", len(delays.Ps), len(nl.Gates)))
	}
	return &Engine{
		nl:      nl,
		prog:    programFor(nl),
		delays:  delays,
		values:  make([]uint8, len(nl.Gates)),
		arrival: make([]float64, len(nl.Gates)),
	}
}

// SetDelays replaces the delay table (e.g. for a new operating corner).
func (e *Engine) SetDelays(delays delay.Table) {
	if len(delays.Ps) != len(e.nl.Gates) {
		panic(fmt.Sprintf("sim: delay table of %d entries for %d gates", len(delays.Ps), len(e.nl.Gates)))
	}
	e.delays = delays
}

// Clone returns a new Engine over the same (immutable, shared) netlist,
// compiled program and delay table but with its own value/arrival scratch
// buffers. Cloning is the cheap path to parallel evaluation: clones may run
// concurrently with each other and with the original, as long as nobody
// calls SetDelays while runs are in flight.
func (e *Engine) Clone() *Engine {
	return &Engine{
		nl:      e.nl,
		prog:    e.prog,
		delays:  e.delays,
		values:  make([]uint8, len(e.nl.Gates)),
		arrival: make([]float64, len(e.nl.Gates)),
	}
}

// Netlist returns the engine's netlist (shared, read-only).
func (e *Engine) Netlist() *netlist.Netlist { return e.nl }

// Run evaluates the netlist for the given primary-input vector.
//
// Every gate's arrival follows the floating-mode rule: Input and constant
// nets arrive at 0; any other gate at its delay plus the earliest arrival
// among fanins holding the gate's controlling value if there is one, else
// the latest fanin arrival. The two-input kernels evaluate that rule
// branch-free, as min(min(ta+add[va], tb+add[vb]), max(ta, tb)) with
// add[v] = 0 for the controlling value and +Inf otherwise (see bitslice.go);
// the result equals the rule bit for bit because arrivals are never
// negative, NaN or -0 (inputs start at +0 and delays are ≥ 0).
//
// Aliasing contract: the returned slices are owned by the engine and are
// overwritten in place by the next Run call — callers must finish reading
// (or copy) them before re-running the engine, and must never retain them
// across calls. TestRunAliasingContract enforces this so that callers which
// accidentally rely on stable storage fail loudly rather than silently when
// engine internals change.
func (e *Engine) Run(inputs []uint8) (values []uint8, arrival []float64) {
	if len(inputs) != len(e.nl.Inputs) {
		panic(fmt.Sprintf("sim: %d inputs for netlist with %d", len(inputs), len(e.nl.Inputs)))
	}
	p, vals, arr, d := e.prog, e.values, e.arrival, e.delays.Ps
	for i, g := range e.nl.Inputs {
		vals[g] = inputs[i] & 1
		arr[g] = 0
	}
	ops := p.ops
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case opAnd2:
			va, vb := vals[o.a], vals[o.b]
			ta, tb := arr[o.a], arr[o.b]
			vals[o.out] = va&vb ^ o.inv
			arr[o.out] = min(min(ta+andAdd[va&1], tb+andAdd[vb&1]), max(ta, tb)) + d[o.out]
		case opOr2:
			va, vb := vals[o.a], vals[o.b]
			ta, tb := arr[o.a], arr[o.b]
			vals[o.out] = (va | vb) ^ o.inv
			arr[o.out] = min(min(ta+orAdd[va&1], tb+orAdd[vb&1]), max(ta, tb)) + d[o.out]
		case opXor2:
			vals[o.out] = vals[o.a] ^ vals[o.b] ^ o.inv
			arr[o.out] = max(arr[o.a], arr[o.b]) + d[o.out]
		case opBuf:
			vals[o.out] = vals[o.a] ^ o.inv
			arr[o.out] = arr[o.a] + d[o.out]
		case opConst:
			vals[o.out] = o.inv
			arr[o.out] = 0
		default:
			runNary(o, p.fanin, vals, arr, d)
		}
	}
	if p.fusedScalar() {
		e.runPairedRCA()
	}
	levelizedPasses.Inc()
	gateEvals.Add(uint64(len(e.nl.Order)))
	return vals, arr
}

// runPairedRCA is Run's fused pass over the paired ripple-carry datapath
// (rcaProgram.paired). Both chains see the same operand and carry values,
// so each stage computes its five value bits once for both; each chain's
// arrivals then follow pairedFAStage's recurrence on scalars. s1 = Xor(a,b)
// and c1 = And(a,b) read only zero-arrival nets, so they arrive at 0 plus
// their delay whatever the values (0 + d, not d, keeps a -0 delay's +0
// result). Every full-adder gate's value and arrival is written, bit for
// bit what the op list computes for it.
func (e *Engine) runPairedRCA() {
	vals, arr, d := e.values, e.arrival, e.delays.Ps
	chA, chB := &e.prog.rca.chains[0], &e.prog.rca.chains[1]
	vc := vals[chA.cin]
	tcA, tcB := arr[chA.cin], arr[chB.cin]
	for i := range chA.stages {
		sa, sb := &chA.stages[i], &chB.stages[i]
		va, vb := vals[sa.a], vals[sa.b]
		s1, c1 := va^vb, va&vb
		c2, sum := s1&vc, s1^vc
		vals[sa.s1], vals[sa.c1], vals[sa.sum], vals[sa.c2] = s1, c1, sum, c2
		vals[sb.s1], vals[sb.c1], vals[sb.sum], vals[sb.c2] = s1, c1, sum, c2
		as1A, ac1A := 0+d[sa.s1], 0+d[sa.c1]
		as1B, ac1B := 0+d[sb.s1], 0+d[sb.c1]
		mA, mB := max(as1A, tcA), max(as1B, tcB)
		t2A := min(min(as1A+andAdd[s1&1], tcA+andAdd[vc&1]), mA) + d[sa.c2]
		t2B := min(min(as1B+andAdd[s1&1], tcB+andAdd[vc&1]), mB) + d[sb.c2]
		tcA = min(min(ac1A+orAdd[c1&1], t2A+orAdd[c2&1]), max(ac1A, t2A)) + d[sa.cout]
		tcB = min(min(ac1B+orAdd[c1&1], t2B+orAdd[c2&1]), max(ac1B, t2B)) + d[sb.cout]
		arr[sa.s1], arr[sa.c1], arr[sa.sum], arr[sa.c2], arr[sa.cout] = as1A, ac1A, mA+d[sa.sum], t2A, tcA
		arr[sb.s1], arr[sb.c1], arr[sb.sum], arr[sb.c2], arr[sb.cout] = as1B, ac1B, mB+d[sb.sum], t2B, tcB
		vc = c1 | c2
		vals[sa.cout], vals[sb.cout] = vc, vc
	}
}

// runNary evaluates a gate whose fanin count is not two (the
// carry-lookahead adder's group terms take up to five fanins) with the
// floating-mode rule as a fanin scan.
func runNary(o *op, fanins []int32, vals []uint8, arr, d []float64) {
	kind := netlist.Kind(o.nk)
	ctrl, hasCtrl := kind.ControllingValue()
	var val uint8
	switch kind {
	case netlist.And, netlist.Nand:
		val = 1
	}
	controlled := false
	tCtrl := math.Inf(1)
	tMax := 0.0
	for _, f := range fanins[o.a : o.a+o.b] {
		v, ta := vals[f], arr[f]
		switch kind {
		case netlist.And, netlist.Nand:
			val &= v
		case netlist.Or, netlist.Nor:
			val |= v
		case netlist.Xor, netlist.Xnor:
			val ^= v
		}
		if hasCtrl && v == ctrl {
			controlled = true
			if ta < tCtrl {
				tCtrl = ta
			}
		}
		if ta > tMax {
			tMax = ta
		}
	}
	t := tMax
	if controlled {
		t = tCtrl
	}
	vals[o.out] = val ^ o.inv
	arr[o.out] = t + d[o.out]
}

// event is one scheduled output transition in the event-driven simulator.
type event struct {
	t    float64
	seq  uint64
	gate int
	val  uint8
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event        { return h[0] }
func (h *eventHeap) popEvent() event   { return heap.Pop(h).(event) }
func (h *eventHeap) pushEvent(e event) { heap.Push(h, e) }

// EventSim is an inertial-delay event-driven logic simulator.
type EventSim struct {
	nl         *netlist.Netlist
	delays     delay.Table
	values     []uint8
	lastChange []float64
	pendSeq    []uint64 // active pending-event sequence per gate, 0 = none
	pendVal    []uint8
	queue      eventHeap
	now        float64
	seq        uint64
	transits   uint64
	// OnTransition, when set, observes every committed signal transition
	// (waveform dumping, activity analysis). It must not mutate the
	// simulator.
	OnTransition func(gate int, t float64, v uint8)
}

// NewEventSim returns an event-driven simulator over the netlist with the
// given per-gate delay table, initialised to the all-zero quiescent state.
func NewEventSim(nl *netlist.Netlist, delays delay.Table) *EventSim {
	if len(delays.Ps) != len(nl.Gates) {
		panic(fmt.Sprintf("sim: delay table of %d entries for %d gates", len(delays.Ps), len(nl.Gates)))
	}
	s := &EventSim{
		nl:         nl,
		delays:     delays,
		values:     make([]uint8, len(nl.Gates)),
		lastChange: make([]float64, len(nl.Gates)),
		pendSeq:    make([]uint64, len(nl.Gates)),
		pendVal:    make([]uint8, len(nl.Gates)),
	}
	s.Settle(make([]uint8, len(nl.Inputs)))
	return s
}

// Settle initialises the simulator to the quiescent state reached with the
// given primary inputs: all nets take their zero-delay values and all
// last-change times reset to 0; time restarts at 0.
func (s *EventSim) Settle(inputs []uint8) {
	val := s.nl.Evaluate(inputs)
	copy(s.values, val)
	for i := range s.lastChange {
		s.lastChange[i] = 0
		s.pendSeq[i] = 0
	}
	s.queue = s.queue[:0]
	s.now = 0
	s.seq = 0
	s.transits = 0
}

// Apply changes the primary inputs at the current simulation time and
// schedules the resulting gate evaluations. Inputs transition with zero
// delay.
func (s *EventSim) Apply(inputs []uint8) {
	if len(inputs) != len(s.nl.Inputs) {
		panic(fmt.Sprintf("sim: %d inputs for netlist with %d", len(inputs), len(s.nl.Inputs)))
	}
	for i, g := range s.nl.Inputs {
		v := inputs[i] & 1
		if s.values[g] == v {
			continue
		}
		s.values[g] = v
		s.lastChange[g] = s.now
		s.transits++
		if s.OnTransition != nil {
			s.OnTransition(g, s.now, v)
		}
		for _, f := range s.nl.Fanout[g] {
			s.scheduleGate(f)
		}
	}
}

// scheduleGate re-evaluates gate f against current input values and
// schedules or cancels its output transition (inertial delay: a newer
// evaluation supersedes a pending one).
func (s *EventSim) scheduleGate(f int) {
	gate := &s.nl.Gates[f]
	switch gate.Kind {
	case netlist.Input, netlist.Const0, netlist.Const1:
		return
	}
	var buf [8]uint8
	in := buf[:0]
	for _, fn := range gate.Fanin {
		in = append(in, s.values[fn])
	}
	newVal := gate.Kind.Eval(in)
	if s.pendSeq[f] != 0 {
		if s.pendVal[f] == newVal {
			return // pending transition already heads to the right value
		}
		s.pendSeq[f] = 0 // cancel: the pulse was swallowed or superseded
	}
	if newVal == s.values[f] {
		return
	}
	s.seq++
	s.pendSeq[f] = s.seq
	s.pendVal[f] = newVal
	s.queue.pushEvent(event{t: s.now + s.delays.Ps[f], seq: s.seq, gate: f, val: newVal})
}

// step processes the earliest event. It reports whether an event was
// processed.
func (s *EventSim) step() bool {
	for len(s.queue) > 0 {
		ev := s.queue.popEvent()
		if s.pendSeq[ev.gate] != ev.seq {
			continue // cancelled
		}
		s.pendSeq[ev.gate] = 0
		s.now = ev.t
		if s.values[ev.gate] == ev.val {
			return true
		}
		s.values[ev.gate] = ev.val
		s.lastChange[ev.gate] = ev.t
		s.transits++
		if s.OnTransition != nil {
			s.OnTransition(ev.gate, ev.t, ev.val)
		}
		for _, f := range s.nl.Fanout[ev.gate] {
			s.scheduleGate(f)
		}
		return true
	}
	return false
}

// Run processes events until the circuit is quiescent and returns the final
// simulation time.
func (s *EventSim) Run() float64 {
	for s.step() {
	}
	return s.now
}

// RunUntil processes events with time <= t, then advances the clock to t.
// Pending events beyond t remain queued. This is the latch-at-time-T
// primitive used by the overclocking model.
func (s *EventSim) RunUntil(t float64) {
	for len(s.queue) > 0 {
		// Drop stale heads so peek sees a live event.
		if s.pendSeq[s.queue.peek().gate] != s.queue.peek().seq {
			s.queue.popEvent()
			continue
		}
		if s.queue.peek().t > t {
			break
		}
		s.step()
	}
	if t > s.now {
		s.now = t
	}
}

// Value returns the current value of net g.
func (s *EventSim) Value(g int) uint8 { return s.values[g] }

// LastChange returns the time of the most recent transition on net g (0 if
// it has not changed since Settle).
func (s *EventSim) LastChange(g int) float64 { return s.lastChange[g] }

// Now returns the current simulation time.
func (s *EventSim) Now() float64 { return s.now }

// Pending reports whether any events remain queued.
func (s *EventSim) Pending() bool {
	for len(s.queue) > 0 {
		if s.pendSeq[s.queue.peek().gate] == s.queue.peek().seq {
			return true
		}
		s.queue.popEvent()
	}
	return false
}

// Transitions returns the total number of signal transitions simulated since
// the last Settle; a proxy for switching activity (and dynamic power).
func (s *EventSim) Transitions() uint64 { return s.transits }
