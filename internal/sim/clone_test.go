package sim

import (
	"sync"
	"testing"

	"pufatt/internal/netlist"
	"pufatt/internal/rng"
)

func TestCloneMatchesOriginal(t *testing.T) {
	nl := netlist.BuildRCANetlist(8)
	eng := NewEngine(nl, randomTable(nl, rng.New(1)))
	clone := eng.Clone()
	src := rng.New(2)
	in := make([]uint8, len(nl.Inputs))
	for trial := 0; trial < 100; trial++ {
		src.Bits(in)
		v0, a0 := eng.Run(in)
		v1, a1 := clone.Run(in)
		for g := range v0 {
			if v0[g] != v1[g] || a0[g] != a1[g] {
				t.Fatalf("trial %d: clone diverges at net %d: (%d,%g) vs (%d,%g)",
					trial, g, v0[g], a0[g], v1[g], a1[g])
			}
		}
	}
}

func TestClonesRunConcurrently(t *testing.T) {
	nl := netlist.BuildRCANetlist(16)
	tab := randomTable(nl, rng.New(3))
	eng := NewEngine(nl, tab)
	// Reference values computed sequentially.
	const n = 64
	ins := make([][]uint8, n)
	wantArr := make([][]float64, n)
	src := rng.New(4)
	for k := range ins {
		ins[k] = make([]uint8, len(nl.Inputs))
		src.Bits(ins[k])
		_, arr := eng.Run(ins[k])
		wantArr[k] = append([]float64(nil), arr...)
	}
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := eng.Clone()
			for k := w; k < n; k += 4 {
				_, arr := e.Run(ins[k])
				for g := range arr {
					if arr[g] != wantArr[k][g] {
						errs <- "concurrent clone diverges from sequential reference"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
}

// TestRunAliasingContract enforces the documented ownership rule: Run's
// returned slices are engine-owned scratch, overwritten in place by the next
// call. If a future refactor made Run allocate fresh slices, callers could
// silently start retaining them — this test pins the contract both ways.
func TestRunAliasingContract(t *testing.T) {
	nl := netlist.BuildRCANetlist(8)
	eng := NewEngine(nl, unitDelays(nl))
	in := make([]uint8, len(nl.Inputs))
	v1, a1 := eng.Run(in)
	firstVals := append([]uint8(nil), v1...)
	firstArr := append([]float64(nil), a1...)
	for i := range in {
		in[i] = 1
	}
	v2, a2 := eng.Run(in)
	if &v1[0] != &v2[0] || &a1[0] != &a2[0] {
		t.Fatal("Run returned fresh slices; the documented engine-owned buffer contract changed")
	}
	changed := false
	for g := range v1 {
		if firstVals[g] != v1[g] || firstArr[g] != a1[g] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("second Run left the first call's slices untouched; aliasing contract not exercised")
	}
}
