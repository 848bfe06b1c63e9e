package netlist

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestKindEvalTruthTables(t *testing.T) {
	cases := []struct {
		kind Kind
		in   []uint8
		want uint8
	}{
		{Const0, nil, 0},
		{Const1, nil, 1},
		{Buf, []uint8{0}, 0},
		{Buf, []uint8{1}, 1},
		{Not, []uint8{0}, 1},
		{Not, []uint8{1}, 0},
		{And, []uint8{1, 1}, 1},
		{And, []uint8{1, 0}, 0},
		{Or, []uint8{0, 0}, 0},
		{Or, []uint8{0, 1}, 1},
		{Nand, []uint8{1, 1}, 0},
		{Nand, []uint8{0, 1}, 1},
		{Nor, []uint8{0, 0}, 1},
		{Nor, []uint8{1, 0}, 0},
		{Xor, []uint8{1, 1}, 0},
		{Xor, []uint8{1, 0}, 1},
		{Xnor, []uint8{1, 1}, 1},
		{Xnor, []uint8{1, 0}, 0},
		{And, []uint8{1, 1, 1}, 1},
		{And, []uint8{1, 1, 0}, 0},
		{Xor, []uint8{1, 1, 1}, 1},
	}
	for _, c := range cases {
		if got := c.kind.Eval(c.in); got != c.want {
			t.Errorf("%v.Eval(%v) = %d, want %d", c.kind, c.in, got, c.want)
		}
	}
}

func TestControllingValues(t *testing.T) {
	for _, k := range []Kind{And, Nand} {
		if v, ok := k.ControllingValue(); !ok || v != 0 {
			t.Errorf("%v controlling value = (%d,%v), want (0,true)", k, v, ok)
		}
	}
	for _, k := range []Kind{Or, Nor} {
		if v, ok := k.ControllingValue(); !ok || v != 1 {
			t.Errorf("%v controlling value = (%d,%v), want (1,true)", k, v, ok)
		}
	}
	for _, k := range []Kind{Xor, Xnor, Not, Buf} {
		if _, ok := k.ControllingValue(); ok {
			t.Errorf("%v should have no controlling value", k)
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	t.Run("bad arity", func(t *testing.T) {
		b := NewBuilder()
		a := b.Input("a")
		b.Gate(Not, a, a) // NOT with 2 fanins
		if _, err := b.Build(); err == nil {
			t.Error("expected arity error")
		}
	})
	t.Run("forward reference", func(t *testing.T) {
		b := NewBuilder()
		a := b.Input("a")
		b.Gate(And, a, 99)
		if _, err := b.Build(); err == nil {
			t.Error("expected invalid-fanin error")
		}
	})
	t.Run("duplicate name", func(t *testing.T) {
		b := NewBuilder()
		b.Input("a")
		b.Input("a")
		if _, err := b.Build(); err == nil {
			t.Error("expected duplicate-name error")
		}
	})
	t.Run("bad output", func(t *testing.T) {
		b := NewBuilder()
		b.Input("a")
		b.Output("out", 42)
		if _, err := b.Build(); err == nil {
			t.Error("expected invalid-output error")
		}
	})
	t.Run("errors stick", func(t *testing.T) {
		b := NewBuilder()
		b.Gate(Not) // bad arity
		a := b.Input("a")
		if a != -1 {
			t.Error("builder kept accepting nodes after error")
		}
	})
}

func TestFullAdderExhaustive(t *testing.T) {
	nl := BuildFullAdderNetlist()
	for a := uint8(0); a <= 1; a++ {
		for bb := uint8(0); bb <= 1; bb++ {
			for cin := uint8(0); cin <= 1; cin++ {
				val := nl.Evaluate([]uint8{a, bb, cin})
				out := nl.OutputValues(val)
				total := a + bb + cin
				if out[0] != total&1 {
					t.Errorf("sum(%d,%d,%d) = %d, want %d", a, bb, cin, out[0], total&1)
				}
				if out[1] != total>>1 {
					t.Errorf("cout(%d,%d,%d) = %d, want %d", a, bb, cin, out[1], total>>1)
				}
			}
		}
	}
}

func rcaCompute(t *testing.T, nl *Netlist, width int, a, b uint64, cin uint8) (sum uint64, cout uint8) {
	t.Helper()
	in := make([]uint8, 2*width+1)
	for i := 0; i < width; i++ {
		in[i] = uint8(a >> uint(i) & 1)
		in[width+i] = uint8(b >> uint(i) & 1)
	}
	in[2*width] = cin
	out := nl.OutputValues(nl.Evaluate(in))
	for i := 0; i < width; i++ {
		sum |= uint64(out[i]) << uint(i)
	}
	return sum, out[width]
}

func TestRippleCarryAdderMatchesIntegerAdd(t *testing.T) {
	const width = 16
	nl := BuildRCANetlist(width)
	mask := uint64(1)<<width - 1
	f := func(a, b uint16, cin bool) bool {
		c := uint8(0)
		if cin {
			c = 1
		}
		sum, cout := rcaCompute(t, nl, width, uint64(a), uint64(b), c)
		total := uint64(a) + uint64(b) + uint64(c)
		return sum == total&mask && cout == uint8(total>>width)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRCA32(t *testing.T) {
	const width = 32
	nl := BuildRCANetlist(width)
	cases := []struct{ a, b uint64 }{
		{0, 0},
		{0xffffffff, 1},
		{0x80000000, 0x80000000},
		{0x12345678, 0x9abcdef0},
	}
	for _, c := range cases {
		sum, cout := rcaCompute(t, nl, width, c.a, c.b, 0)
		total := c.a + c.b
		if sum != total&0xffffffff || cout != uint8(total>>32) {
			t.Errorf("RCA32(%#x,%#x) = (%#x,%d), want (%#x,%d)",
				c.a, c.b, sum, cout, total&0xffffffff, total>>32)
		}
	}
}

func TestALUFunctions(t *testing.T) {
	const width = 8
	nl := BuildALUNetlist(width)
	run := func(a, b uint8, op ALUOp) (uint8, uint8) {
		in := make([]uint8, 2*width+2)
		for i := 0; i < width; i++ {
			in[i] = a >> uint(i) & 1
			in[width+i] = b >> uint(i) & 1
		}
		in[2*width] = uint8(op) & 1
		in[2*width+1] = uint8(op) >> 1 & 1
		out := nl.OutputValues(nl.Evaluate(in))
		var r uint8
		for i := 0; i < width; i++ {
			r |= out[i] << uint(i)
		}
		return r, out[width]
	}
	f := func(a, b uint8) bool {
		add, _ := run(a, b, ALUAdd)
		sub, _ := run(a, b, ALUSub)
		and, _ := run(a, b, ALUAnd)
		xor, _ := run(a, b, ALUXor)
		return add == a+b && sub == a-b && and == a&b && xor == a^b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPUFDatapathStructure(t *testing.T) {
	p := BuildPUFDatapath(PUFDatapathConfig{Width: 16})
	if got := p.ResponseBits(); got != 16 {
		t.Errorf("ResponseBits = %d, want 16", got)
	}
	if len(p.Net.Inputs) != 32 {
		t.Errorf("inputs = %d, want 32", len(p.Net.Inputs))
	}
	// Both ALUs must compute the same sums for any challenge.
	ch := make([]uint8, 32)
	for i := range ch {
		ch[i] = uint8(i % 2)
	}
	val := p.Net.Evaluate(p.SetChallenge(ch))
	for i := 0; i < 16; i++ {
		a0, a1 := p.Pair(i)
		if val[a0] != val[a1] {
			t.Errorf("bit %d: ALU0 and ALU1 disagree functionally", i)
		}
	}
}

func TestPUFDatapathCarryOption(t *testing.T) {
	p := BuildPUFDatapath(PUFDatapathConfig{Width: 8, UseCarry: true})
	if got := p.ResponseBits(); got != 9 {
		t.Errorf("ResponseBits = %d, want 9", got)
	}
	a0, a1 := p.Pair(8)
	if a0 != p.A0Cout || a1 != p.A1Cout {
		t.Error("Pair(width) should return the carry-out nets")
	}
}

func TestPUFDatapathPairPanicsOutOfRange(t *testing.T) {
	p := BuildPUFDatapath(PUFDatapathConfig{Width: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range pair")
		}
	}()
	p.Pair(4) // UseCarry false → only 0..3 valid
}

func TestDepthGrowsWithWidth(t *testing.T) {
	d8 := BuildRCANetlist(8).Depth()
	d16 := BuildRCANetlist(16).Depth()
	d32 := BuildRCANetlist(32).Depth()
	if !(d8 < d16 && d16 < d32) {
		t.Errorf("depths not monotonic: %d, %d, %d", d8, d16, d32)
	}
	// The ripple-carry critical path grows ~2 gates per bit.
	if d32 < 32 {
		t.Errorf("RCA32 depth = %d, implausibly shallow", d32)
	}
}

func TestCountKindAndLogicGates(t *testing.T) {
	nl := BuildFullAdderNetlist()
	if got := nl.CountKind(Xor); got != 2 {
		t.Errorf("XOR count = %d, want 2", got)
	}
	if got := nl.CountKind(And); got != 2 {
		t.Errorf("AND count = %d, want 2", got)
	}
	if got := nl.CountKind(Or); got != 1 {
		t.Errorf("OR count = %d, want 1", got)
	}
	if got := nl.LogicGates(); got != 5 {
		t.Errorf("LogicGates = %d, want 5", got)
	}
}

func TestFanout(t *testing.T) {
	b := NewBuilder()
	a := b.Input("a")
	x := b.Gate(Not, a)
	y := b.Gate(Not, a)
	b.Gate(And, x, y)
	nl := b.MustBuild()
	if len(nl.Fanout[a]) != 2 {
		t.Errorf("fanout of input = %d, want 2", len(nl.Fanout[a]))
	}
}

func TestEvaluatePanicsOnBadInputCount(t *testing.T) {
	nl := BuildFullAdderNetlist()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong input count")
		}
	}()
	nl.Evaluate([]uint8{1})
}

func TestMux2(t *testing.T) {
	b := NewBuilder()
	s := b.Input("s")
	d0 := b.Input("d0")
	d1 := b.Input("d1")
	b.Output("y", Mux2(b, s, d0, d1))
	nl := b.MustBuild()
	for _, c := range []struct{ s, d0, d1, want uint8 }{
		{0, 0, 1, 0}, {0, 1, 0, 1}, {1, 0, 1, 1}, {1, 1, 0, 0},
	} {
		out := nl.OutputValues(nl.Evaluate([]uint8{c.s, c.d0, c.d1}))
		if out[0] != c.want {
			t.Errorf("mux(s=%d,d0=%d,d1=%d) = %d, want %d", c.s, c.d0, c.d1, out[0], c.want)
		}
	}
}

// TestDerivedBuildsOncePerKey: concurrent callers of Derived share one
// build per (netlist, key); other keys and netlists build their own.
func TestDerivedBuildsOncePerKey(t *testing.T) {
	type keyA struct{}
	type keyB struct{}
	nl := BuildRCANetlist(4)
	var builds atomic.Int32
	build := func(n *Netlist) any {
		builds.Add(1)
		return &struct{ gates int }{len(n.Gates)}
	}
	results := make([]any, 16)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = nl.Derived(keyA{}, build)
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for _, r := range results {
		if r != results[0] {
			t.Fatal("callers of one key got different values")
		}
	}
	if nl.Derived(keyB{}, build) == results[0] || BuildRCANetlist(4).Derived(keyA{}, build) == results[0] {
		t.Fatal("another key or netlist shared the first key's value")
	}
	if n := builds.Load(); n != 3 {
		t.Fatalf("%d builds after two more (key, netlist) pairs, want 3", n)
	}
}
