package telemetry

import (
	"math"
	"runtime"
	"testing"
)

// synthetic runtime snapshots in the runtime/metrics layout: boundaries
// [-Inf, 1e-6, 1e-3, +Inf], three buckets.
func runtimeSnap(heap, gor float64, cycles uint64, counts ...uint64) RuntimeSnapshot {
	h := RuntimeHistogram{
		Buckets: []float64{math.Inf(-1), 1e-6, 1e-3, math.Inf(1)},
		Counts:  append([]uint64(nil), counts...),
	}
	return RuntimeSnapshot{
		HeapBytes: heap, Goroutines: gor, GCCycles: cycles,
		GCPauseSeconds:      h,
		SchedLatencySeconds: h,
	}
}

func TestRuntimeCollectorDeltas(t *testing.T) {
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)
	snaps := []RuntimeSnapshot{
		runtimeSnap(1000, 5, 10, 3, 7, 0),
		runtimeSnap(2000, 8, 12, 3, 9, 1),
	}
	i := 0
	c.SetSource(func() RuntimeSnapshot { s := snaps[i]; return s })

	// First sample primes the baseline: gauges move, deltas do not.
	c.Sample()
	if v := reg.Gauge(MetricHeapBytes, "").Value(); v != 1000 {
		t.Fatalf("runtime_heap_bytes = %v, want 1000", v)
	}
	if v := reg.Gauge(MetricGoroutines, "").Value(); v != 5 {
		t.Fatalf("runtime_goroutines = %v, want 5", v)
	}
	if v := reg.Counter(MetricGCCycles, "").Value(); v != 0 {
		t.Fatalf("primed gc cycles counter = %d, want 0", v)
	}
	if n := reg.Histogram(MetricGCPause, "", runtimeBuckets).Count(); n != 0 {
		t.Fatalf("primed gc pause count = %d, want 0", n)
	}

	// Second sample replays the cumulative growth: 2 new pauses in the
	// middle bucket (observed at its 1e-3 upper boundary) and 1 in the +Inf
	// tail (observed at its 1e-3 lower boundary), for both histograms.
	i = 1
	c.Sample()
	if v := reg.Counter(MetricGCCycles, "").Value(); v != 2 {
		t.Fatalf("runtime_gc_cycles_total delta = %d, want 2", v)
	}
	for _, name := range []string{"runtime_gc_pause_seconds", "runtime_sched_latency_seconds"} {
		h := reg.Histogram(name, "", runtimeBuckets)
		if n := h.Count(); n != 3 {
			t.Fatalf("%s count = %d, want 3", name, n)
		}
		if s := h.Sum(); math.Abs(s-3e-3) > 1e-12 {
			t.Fatalf("%s sum = %v, want 3e-3", name, s)
		}
	}
	if v := reg.Gauge(MetricHeapBytes, "").Value(); v != 2000 {
		t.Fatalf("heap gauge = %v, want 2000", v)
	}

	// A third sample with no growth observes nothing new.
	c.Sample()
	if n := reg.Histogram(MetricGCPause, "", runtimeBuckets).Count(); n != 3 {
		t.Fatalf("no-growth sample changed the count: %d", n)
	}
}

// A layout change between snapshots (runtime version skew) must re-baseline
// rather than replay the entire cumulative history as fresh deltas.
func TestRuntimeCollectorLayoutChangeSkipsRound(t *testing.T) {
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)
	changed := RuntimeSnapshot{
		GCPauseSeconds: RuntimeHistogram{
			Buckets: []float64{math.Inf(-1), 1e-3, math.Inf(1)}, // different shape
			Counts:  []uint64{100, 100},
		},
	}
	snaps := []RuntimeSnapshot{
		runtimeSnap(0, 0, 0, 1, 1, 1),
		changed,
		changed, // identical layout to prev, zero growth
	}
	i := 0
	c.SetSource(func() RuntimeSnapshot { s := snaps[i]; return s })
	for ; i < len(snaps); i++ {
		c.Sample()
	}
	if n := reg.Histogram(MetricGCPause, "", runtimeBuckets).Count(); n != 0 {
		t.Fatalf("layout change leaked %d observations", n)
	}
}

// A counter that goes backwards (process restart behind the seam) must not
// underflow the delta.
func TestRuntimeCollectorRegressionClamped(t *testing.T) {
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)
	snaps := []RuntimeSnapshot{
		runtimeSnap(0, 0, 50, 10, 0, 0),
		runtimeSnap(0, 0, 3, 4, 0, 0), // both cycle count and bucket shrink
	}
	i := 0
	c.SetSource(func() RuntimeSnapshot { s := snaps[i]; return s })
	c.Sample()
	i = 1
	c.Sample()
	if v := reg.Counter(MetricGCCycles, "").Value(); v != 0 {
		t.Fatalf("regressed cycle counter added %d", v)
	}
	if n := reg.Histogram(MetricGCPause, "", runtimeBuckets).Count(); n != 0 {
		t.Fatalf("regressed histogram added %d observations", n)
	}
}

// The real runtime/metrics source end to end: force a GC between samples
// and the collector must report it through ordinary registry instruments.
func TestRuntimeCollectorLiveSource(t *testing.T) {
	reg := NewRegistry()
	c := NewRuntimeCollector(reg)
	c.Sample()
	runtime.GC()
	c.Sample()
	if v := reg.Gauge(MetricGoroutines, "").Value(); v < 1 {
		t.Fatalf("goroutine gauge = %v, want >= 1", v)
	}
	if v := reg.Gauge(MetricHeapBytes, "").Value(); v <= 0 {
		t.Fatalf("heap gauge = %v, want > 0", v)
	}
	if v := reg.Counter(MetricGCCycles, "").Value(); v < 1 {
		t.Fatalf("gc cycles after runtime.GC() = %d, want >= 1", v)
	}
	if n := reg.Histogram(MetricGCPause, "", runtimeBuckets).Count(); n < 1 {
		t.Fatalf("gc pause observations = %d, want >= 1", n)
	}
}
