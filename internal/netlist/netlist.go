// Package netlist models structural gate-level netlists: the combinational
// networks of gates and wires whose signal-propagation delays the ALU PUF
// turns into device fingerprints.
//
// The representation is deliberately simple and fast to traverse: every gate
// drives exactly one net, and the net is identified by the index of its
// driving gate. Primary inputs are gates of kind Input; constants are gates
// of kind Const0/Const1. A Netlist is immutable once built; Builder performs
// construction and validation (single driver, acyclicity, arity checks).
//
// Besides the generic builder, the package provides the structural
// components of the paper's Section 2: full adders, ripple-carry adders, and
// the complete two-ALU PUF datapath, each with a die placement so that the
// quad-tree variation model (package variation) can assign spatially
// correlated process parameters.
package netlist

import (
	"fmt"
	"sort"
	"sync"
)

// Kind enumerates the gate types in the cell library.
type Kind int

// Gate kinds. Input gates have no fanin and model primary inputs; Const0 and
// Const1 model tie-offs. The remaining kinds are standard combinational
// cells.
const (
	Input Kind = iota
	Const0
	Const1
	Buf
	Not
	And
	Or
	Nand
	Nor
	Xor
	Xnor
	numKinds
)

var kindNames = [...]string{"INPUT", "CONST0", "CONST1", "BUF", "NOT", "AND", "OR", "NAND", "NOR", "XOR", "XNOR"}

// String returns the conventional cell-library name of the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// arity returns the (min, max) fanin count for the kind; max<0 means
// unbounded.
func (k Kind) arity() (int, int) {
	switch k {
	case Input, Const0, Const1:
		return 0, 0
	case Buf, Not:
		return 1, 1
	case And, Or, Nand, Nor, Xor, Xnor:
		return 2, -1
	default:
		return 0, -1
	}
}

// Eval computes the Boolean function of the kind over the fanin values
// (each 0 or 1).
func (k Kind) Eval(in []uint8) uint8 {
	switch k {
	case Const0:
		return 0
	case Const1:
		return 1
	case Buf, Input:
		if len(in) == 0 {
			return 0
		}
		return in[0]
	case Not:
		return in[0] ^ 1
	case And, Nand:
		v := uint8(1)
		for _, b := range in {
			v &= b
		}
		if k == Nand {
			v ^= 1
		}
		return v
	case Or, Nor:
		v := uint8(0)
		for _, b := range in {
			v |= b
		}
		if k == Nor {
			v ^= 1
		}
		return v
	case Xor, Xnor:
		v := uint8(0)
		for _, b := range in {
			v ^= b
		}
		if k == Xnor {
			v ^= 1
		}
		return v
	default:
		panic("netlist: eval of unknown gate kind " + k.String())
	}
}

// ControllingValue returns (value, ok): ok reports whether the kind has a
// controlling input value (an input value that alone determines the output),
// and value is that input value. AND/NAND are controlled by 0, OR/NOR by 1;
// XOR/XNOR and single-input gates have none.
func (k Kind) ControllingValue() (uint8, bool) {
	switch k {
	case And, Nand:
		return 0, true
	case Or, Nor:
		return 1, true
	default:
		return 0, false
	}
}

// Gate is one cell instance. Fanin holds the indices of the driving gates.
// X, Y is the placement on the die in micrometres, used by the spatial
// variation model.
type Gate struct {
	Kind  Kind
	Name  string
	Fanin []int
	X, Y  float64
}

// Netlist is an immutable combinational netlist. Gate i drives net i.
type Netlist struct {
	Gates   []Gate
	Inputs  []int          // gate indices of primary inputs, in declaration order
	Outputs []int          // gate indices whose nets are primary outputs
	OutName []string       // names of the primary outputs, parallel to Outputs
	Order   []int          // a topological order of all gates (inputs first)
	ByName  map[string]int // net name -> gate index (inputs and named gates)
	Fanout  [][]int        // Fanout[i] lists the gates that read net i

	derivedMu sync.Mutex
	derived   map[any]any // see Derived
}

// Derived returns build(n), computed on the first call for key and shared by
// every later call with the same key. Other packages use it to compile the
// netlist once into their own form (a simulation program, say) and share
// the result for the netlist's lifetime instead of rebuilding it per user;
// since the netlist never changes, the result never goes stale. key must be
// a comparable value of a type private to the calling package, and build
// must not call Derived on the same netlist.
func (n *Netlist) Derived(key any, build func(*Netlist) any) any {
	n.derivedMu.Lock()
	defer n.derivedMu.Unlock()
	if v, ok := n.derived[key]; ok {
		return v
	}
	v := build(n)
	if n.derived == nil {
		n.derived = make(map[any]any)
	}
	n.derived[key] = v
	return v
}

// CountKind returns how many gates of kind k the netlist contains.
func (n *Netlist) CountKind(k Kind) int {
	c := 0
	for i := range n.Gates {
		if n.Gates[i].Kind == k {
			c++
		}
	}
	return c
}

// LogicGates returns the number of gates excluding Input/Const pseudo-gates.
func (n *Netlist) LogicGates() int {
	c := 0
	for i := range n.Gates {
		switch n.Gates[i].Kind {
		case Input, Const0, Const1:
		default:
			c++
		}
	}
	return c
}

// Depth returns the maximum logic depth (number of logic gates on the
// longest input-to-output path).
func (n *Netlist) Depth() int {
	depth := make([]int, len(n.Gates))
	maxDepth := 0
	for _, g := range n.Order {
		d := 0
		for _, f := range n.Gates[g].Fanin {
			if depth[f] > d {
				d = depth[f]
			}
		}
		switch n.Gates[g].Kind {
		case Input, Const0, Const1:
			depth[g] = 0
		default:
			depth[g] = d + 1
		}
		if depth[g] > maxDepth {
			maxDepth = depth[g]
		}
	}
	return maxDepth
}

// Evaluate computes the Boolean value of every net given the primary-input
// assignment (parallel to Inputs). The returned slice is indexed by gate.
// It is the zero-delay functional semantics, used by tests to cross-check
// the timing engines.
func (n *Netlist) Evaluate(inputs []uint8) []uint8 {
	if len(inputs) != len(n.Inputs) {
		panic(fmt.Sprintf("netlist: Evaluate with %d inputs, want %d", len(inputs), len(n.Inputs)))
	}
	val := make([]uint8, len(n.Gates))
	for i, g := range n.Inputs {
		val[g] = inputs[i] & 1
	}
	var buf [8]uint8
	for _, g := range n.Order {
		gate := &n.Gates[g]
		if gate.Kind == Input {
			continue
		}
		in := buf[:0]
		for _, f := range gate.Fanin {
			in = append(in, val[f])
		}
		val[g] = gate.Kind.Eval(in)
	}
	return val
}

// OutputValues extracts the primary-output values from a net-value vector
// produced by Evaluate.
func (n *Netlist) OutputValues(val []uint8) []uint8 {
	out := make([]uint8, len(n.Outputs))
	for i, g := range n.Outputs {
		out[i] = val[g]
	}
	return out
}

// Builder constructs a Netlist incrementally.
type Builder struct {
	gates   []Gate
	inputs  []int
	outputs []int
	outName []string
	byName  map[string]int
	err     error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{byName: make(map[string]int)}
}

func (b *Builder) fail(format string, args ...any) int {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return -1
}

// Input declares a primary input with the given name and returns its net.
func (b *Builder) Input(name string) int {
	return b.add(Gate{Kind: Input, Name: name})
}

// InputBus declares width primary inputs named name[0..width) and returns
// their nets, LSB first.
func (b *Builder) InputBus(name string, width int) []int {
	nets := make([]int, width)
	for i := range nets {
		nets[i] = b.Input(fmt.Sprintf("%s[%d]", name, i))
	}
	return nets
}

// Const returns a constant net with the given bit value.
func (b *Builder) Const(v uint8) int {
	if v == 0 {
		return b.add(Gate{Kind: Const0, Name: "const0"})
	}
	return b.add(Gate{Kind: Const1, Name: "const1"})
}

// Gate instantiates a gate of the given kind over the fanin nets and returns
// its output net.
func (b *Builder) Gate(kind Kind, fanin ...int) int {
	return b.add(Gate{Kind: kind, Fanin: fanin})
}

// Named instantiates a named gate; the name is registered for lookup.
func (b *Builder) Named(kind Kind, name string, fanin ...int) int {
	return b.add(Gate{Kind: kind, Name: name, Fanin: fanin})
}

func (b *Builder) add(g Gate) int {
	if b.err != nil {
		return -1
	}
	lo, hi := g.Kind.arity()
	if len(g.Fanin) < lo || (hi >= 0 && len(g.Fanin) > hi) {
		return b.fail("netlist: %s gate with %d fanins", g.Kind, len(g.Fanin))
	}
	id := len(b.gates)
	for _, f := range g.Fanin {
		if f < 0 || f >= id {
			return b.fail("netlist: gate %d (%s) has invalid fanin %d", id, g.Kind, f)
		}
	}
	b.gates = append(b.gates, g)
	if g.Name != "" {
		if _, dup := b.byName[g.Name]; dup {
			return b.fail("netlist: duplicate net name %q", g.Name)
		}
		b.byName[g.Name] = id
	}
	return id
}

// Output marks net as a primary output with the given name.
func (b *Builder) Output(name string, net int) {
	if b.err != nil {
		return
	}
	if net < 0 || net >= len(b.gates) {
		b.fail("netlist: output %q references invalid net %d", name, net)
		return
	}
	b.outputs = append(b.outputs, net)
	b.outName = append(b.outName, name)
}

// Place assigns a die placement (micrometres) to the gate driving net.
func (b *Builder) Place(net int, x, y float64) {
	if b.err != nil || net < 0 || net >= len(b.gates) {
		return
	}
	b.gates[net].X = x
	b.gates[net].Y = y
}

// Build validates and freezes the netlist. Because Builder only permits
// fanins that reference earlier gates, declaration order is already a
// topological order.
func (b *Builder) Build() (*Netlist, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := &Netlist{
		Gates:   b.gates,
		Inputs:  b.inputsOf(),
		Outputs: b.outputs,
		OutName: b.outName,
		ByName:  b.byName,
	}
	n.Order = make([]int, len(n.Gates))
	for i := range n.Order {
		n.Order[i] = i
	}
	n.Fanout = make([][]int, len(n.Gates))
	for g := range n.Gates {
		for _, f := range n.Gates[g].Fanin {
			n.Fanout[f] = append(n.Fanout[f], g)
		}
	}
	return n, nil
}

// MustBuild is Build that panics on error, for statically correct netlists
// constructed by this package's own component builders.
func (b *Builder) MustBuild() *Netlist {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

func (b *Builder) inputsOf() []int {
	var in []int
	for i := range b.gates {
		if b.gates[i].Kind == Input {
			in = append(in, i)
		}
	}
	sort.Ints(in)
	return in
}
