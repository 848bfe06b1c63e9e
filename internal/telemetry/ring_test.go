package telemetry

import (
	"slices"
	"testing"
)

func TestRing(t *testing.T) {
	cases := []struct {
		name          string
		capacity, ops int
	}{
		{"cap1 empty", 1, 0},
		{"cap1 exact fill", 1, 1},
		{"cap1 wrapped twice", 1, 3},
		{"cap3 empty", 3, 0},
		{"cap3 under-fill", 3, 2},
		{"cap3 exact fill", 3, 3},
		{"cap3 wrapped twice", 3, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRing[int](tc.capacity)
			for i := 1; i <= tc.ops; i++ {
				if evicted, want := r.push(i), i > tc.capacity; evicted != want {
					t.Fatalf("push %d evicted = %v, want %v", i, evicted, want)
				}
			}
			held := min(tc.ops, tc.capacity)
			var want []int // the newest held values, oldest first
			for i := tc.ops - held + 1; i <= tc.ops; i++ {
				want = append(want, i)
			}
			if r.len() != held || r.capacity() != tc.capacity {
				t.Fatalf("len %d capacity %d, want %d %d", r.len(), r.capacity(), held, tc.capacity)
			}
			if got := r.appendTo(nil); !slices.Equal(got, want) {
				t.Fatalf("appendTo = %v, want %v", got, want)
			}
			var walked []int
			r.each(func(v int) { walked = append(walked, v) })
			if !slices.Equal(walked, want) {
				t.Fatalf("each walked %v, want %v", walked, want)
			}
			last, ok := r.last()
			if ok != (held > 0) || (ok && last != tc.ops) || (!ok && last != 0) {
				t.Fatalf("last = %d, %v; want %d, %v", last, ok, tc.ops, held > 0)
			}
		})
	}
}

// TestRingPushDoesNotAllocate pins the hot-path contract: the tracer and
// the journal push once per span and per event.
func TestRingPushDoesNotAllocate(t *testing.T) {
	r := newRing[Event](4)
	e := Event{Kind: EventVerifyOutcome, Detail: "accepted"}
	if n := testing.AllocsPerRun(100, func() { r.push(e) }); n != 0 {
		t.Fatalf("push allocated %.1f times per call, want 0", n)
	}
}
