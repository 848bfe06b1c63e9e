package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pufatt/internal/attest"
	"pufatt/internal/telemetry"
)

// config sizes the workloads. defaultConfig is what the command runs and
// what the pinned checks describe; the tests shrink it.
type config struct {
	setups int // set-ups per run; setup_s is their median

	sessionDevices int
	sessionWarmup  int // sessions run during set-up
	sessionPrefix  int // sessions the pinned checks cover

	verifierDevices int
	verifierPass    int // recorded sessions; each pass replays all of them

	clusterDevices int
	clusterPass    int // scheduled sessions; each pass replays all of them

	figureSeeds  int // challenge seeds per Figure3/Figure4 call
	figureWarmup int // pairs run during set-up
	figurePrefix int // pairs the pinned checks cover

	// minOps is the fewest ops a timed phase runs, whatever its length in
	// seconds: a p99 needs 1000 samples to have ten beyond it.
	minOps int
}

var defaultConfig = config{
	setups:          3,
	sessionDevices:  4,
	sessionWarmup:   64,
	sessionPrefix:   256,
	verifierDevices: 8,
	verifierPass:    512,
	clusterDevices:  64,
	clusterPass:     2000,
	figureSeeds:     256,
	figureWarmup:    16,
	figurePrefix:    64,
	minOps:          1000,
}

// result is what one op produced, as the pinned checks see it.
type result struct {
	failed  bool   // the op reached no verdict or result
	verdict string // verdict class ("ok" or the rejection reason's class)
	device  int
	session uint64
	tag     [8]uint32
	compute float64 // simulated prover seconds
	delta   float64 // the time bound δ the verdict was judged against
	hist    []int64 // figures: every histogram count the two calls produced
}

// verdictClass names a verdict by its reason up to the first colon, so
// rejections with numbers in their reason still count together.
func verdictClass(res attest.Result) string {
	if res.Accepted {
		return "ok"
	}
	class, _, _ := strings.Cut(res.Reason, ":")
	return class
}

// closedLoop is a workload one client drives: op runs operation i of its
// deterministic stream and returns only after it completes. An error is a
// failed correctness check and stops the run.
type closedLoop interface {
	op(i int) (result, error)
	close() error
}

// phase is everything the timed part of a run measured.
type phase struct {
	meter
	ops, failed int
	latMs       []float64 // per op
	lagMs       []float64 // per op: the client's gap since the previous op ended
	traced      []bool
	counts      map[string]float64 // per-op registry counts the pinned checks cover
	records     []result           // the ops the pinned checks cover
	attempts    int
	problems    []string
}

// counterMetrics maps per-layer count metrics to the registry counters the
// layers already export.
var counterMetrics = [...]struct{ metric, counter string }{
	{"sim.levelized_passes_per_op", "sim_levelized_passes_total"},
	{"sim.gate_evals_per_op", "sim_gate_evals_total"},
	{"sim.bitslice_passes_per_op", "sim_bitslice_passes_total"},
	{"ecc.recoveries_per_op", "ecc_recoveries_total"},
	{"ecc.corrected_bits_per_op", "ecc_corrected_bits_total"},
	{"core.batch.items_per_op", "puf_batch_items_total"},
}

type counterSnapshot [len(counterMetrics)]uint64

func readCounters() counterSnapshot {
	var s counterSnapshot
	for i, c := range counterMetrics {
		s[i] = telemetry.Default().Counter(c.counter, "").Value()
	}
	return s
}

// perOp turns the counter growth since from into per-op counts.
func (s counterSnapshot) perOp(from counterSnapshot, ops int) map[string]float64 {
	out := make(map[string]float64, len(counterMetrics))
	for i, c := range counterMetrics {
		out[c.metric] = float64(s[i]-from[i]) / float64(ops)
	}
	return out
}

// cpuTime reads the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set, VmHWM, from
// /proc/self/status. getrusage's ru_maxrss would not do: it keeps the
// resident set of whatever process forked the launcher, across the exec.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// meter adds up wall time, CPU time, allocations, GCs and registry counts
// over the timed segments of a run, each bracketed by start and stop.
type meter struct {
	wall, cpu  time.Duration
	allocBytes uint64
	mallocs    uint64
	gcs        uint32
	counted    counterSnapshot

	t0   time.Time
	cpu0 time.Duration
	mem0 runtime.MemStats
	c0   counterSnapshot
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.mem0)
	m.c0 = readCounters()
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall += time.Since(m.t0)
	m.cpu += cpuTime() - m.cpu0
	for i, c := range readCounters() {
		m.counted[i] += c - m.c0[i]
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.allocBytes += mem.TotalAlloc - m.mem0.TotalAlloc
	m.mallocs += mem.Mallocs - m.mem0.Mallocs
	m.gcs += mem.NumGC - m.mem0.NumGC
}

// traceOp picks the ops of a traced run that record spans: about half, in
// a pattern no workload's own period lines up with, so the untraced half
// is a like-for-like baseline for the tracing overhead.
func traceOp(trace bool, i int) bool { return trace && splitmix64(uint64(i))&1 == 1 }

// splitmix64 is the SplitMix64 finaliser.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runClosed times ops [from, ...) of a closed loop until at least seconds
// have passed, minOps ops have run and the pinned prefix is covered,
// stopping only at a multiple of pass ops.
func runClosed(w closedLoop, from, prefix, pass, minOps int, seconds time.Duration,
	sc *scope, root spanName, trace bool) (*phase, error) {
	ph := &phase{}
	runtime.GC()
	ph.start()
	prevEnd := ph.t0
	for n := 0; ; n++ {
		if n >= minOps && n >= prefix && n%pass == 0 && time.Since(ph.t0) >= seconds {
			break
		}
		traced := traceOp(trace, n)
		sc.begin(root, n, traced)
		start := time.Now()
		r, err := w.op(from + n)
		end := time.Now()
		sc.finish()
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", from+n, err)
		}
		ph.ops++
		ph.attempts++
		if r.failed {
			ph.failed++
		}
		ph.latMs = append(ph.latMs, ms(end.Sub(start)))
		ph.lagMs = append(ph.lagMs, ms(start.Sub(prevEnd)))
		ph.traced = append(ph.traced, traced)
		prevEnd = end
		if n < prefix {
			ph.records = append(ph.records, r)
			if n == prefix-1 {
				ph.counts = readCounters().perOp(ph.c0, prefix)
			}
		}
	}
	ph.stop()
	return ph, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// summary is the part of a run the pinned checks compare: verdict counts by
// class, a digest over every op's (device, session, verdict, tag) — or
// histograms, for figures — sorted per device so the order in which ops
// complete does not matter, the summed simulated compute time and δ,
// and the exact per-op layer counts.
type summary struct {
	Ops      int                `json:"ops"`
	Verdicts map[string]int     `json:"verdicts,omitempty"`
	Digest   string             `json:"digest"`
	ComputeS string             `json:"compute_s,omitempty"`
	DeltaS   string             `json:"delta_s,omitempty"`
	Counts   map[string]float64 `json:"counts"`
}

func summarize(records []result, counts map[string]float64) summary {
	recs := append([]result(nil), records...)
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].device != recs[b].device {
			return recs[a].device < recs[b].device
		}
		return recs[a].session < recs[b].session
	})
	s := summary{Ops: len(recs), Verdicts: map[string]int{}, Counts: counts}
	h := sha256.New()
	var compute, delta float64
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range recs {
		put(uint64(r.device))
		put(r.session)
		h.Write([]byte(r.verdict))
		h.Write([]byte{0})
		for _, w := range r.tag {
			put(uint64(w))
		}
		for _, c := range r.hist {
			put(uint64(c))
		}
		if r.verdict != "" {
			s.Verdicts[r.verdict]++
		}
		compute += r.compute
		delta += r.delta
	}
	s.Digest = hex.EncodeToString(h.Sum(nil)[:16])
	if delta > 0 {
		s.ComputeS = strconv.FormatFloat(compute, 'g', -1, 64)
		s.DeltaS = strconv.FormatFloat(delta, 'g', -1, 64)
	}
	if len(s.Verdicts) == 0 {
		s.Verdicts = nil
	}
	return s
}
