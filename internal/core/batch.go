package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pufatt/internal/delay"
	"pufatt/internal/rng"
	"pufatt/internal/sim"
)

// This file is the parallel batch-evaluation layer: every paper-scale
// campaign (Figure 3/4, the FNR Monte-Carlo, ML-attack training sets) is a
// large batch of independent challenge evaluations on one or more devices,
// and the levelized engine is cheaply cloneable, so the batch fans out
// across a bounded worker pool.
//
// Determinism is the design constraint. A Device's sequential RawResponse
// draws arbiter noise from one rolling stream, which a parallel schedule
// would consume in a racy order. The batch evaluator instead derives an
// independent noise stream per challenge — seeded by (device noise seed,
// batch epoch, item index) via rng.SubSeedN — so the result matrix is
// bit-identical for every worker count, including workers=1, and replays
// exactly for a given device history regardless of GOMAXPROCS.

// batchChunk is how many consecutive items a worker claims per dispatch:
// large enough to amortise the atomic fetch-add, small enough to balance
// tail latency on uneven netlists.
const batchChunk = 32

// BatchEvaluator fans challenge batches of one device across a bounded set
// of workers, each with its own cloned simulation engine. Create one per
// device (or use the Device.RawResponses family, which manages one
// lazily); it must not be used concurrently with other evaluations on the
// same device, but its own workers coordinate internally.
//
// Every batch runs the 64-lane bitsliced gate-level pass (runSliced). The
// scalar fan-out (runGate) is the reference it is tested against: the two
// are bit-identical at every worker count, and only package tests select
// the scalar one.
type BatchEvaluator struct {
	dev *Device
	// One engine per worker, grown on first need and pointed at the
	// batch's delay table at the start of every batch.
	sliced []*sim.SlicedEngine
	gate   []*sim.Engine
	// scalar routes batches through runGate; set only by package tests.
	scalar bool
}

// NewBatchEvaluator returns a batch evaluator over the device.
func NewBatchEvaluator(dev *Device) *BatchEvaluator {
	return &BatchEvaluator{dev: dev}
}

// workerEngines grows engs to at least n engines (the first from fresh,
// the rest cloned from it: shared netlist and program, private scratch)
// and sets the first n to the batch's delay table.
func workerEngines[E interface {
	Clone() E
	SetDelays(delay.Table)
}](engs []E, n int, tab delay.Table, fresh func() E) []E {
	if len(engs) == 0 {
		engs = append(engs, fresh())
	}
	for len(engs) < n {
		engs = append(engs, engs[0].Clone())
	}
	for _, e := range engs[:n] {
		e.SetDelays(tab)
	}
	return engs
}

// batcher returns the device's lazily created batch evaluator.
func (dev *Device) batcher() *BatchEvaluator {
	if dev.batch == nil {
		dev.batch = NewBatchEvaluator(dev)
	}
	return dev.batch
}

// RawResponses measures raw responses (with per-evaluation arbiter noise)
// for every challenge, fanning the batch across workers goroutines
// (0 = GOMAXPROCS). Row k of the result is the response to challenges[k];
// rows are caller-owned fresh storage, carved from one backing allocation.
// Results are bit-identical for every worker count.
func (dev *Device) RawResponses(challenges [][]uint8, workers int) [][]uint8 {
	return dev.batcher().RawResponses(challenges, nil, workers)
}

// NoiselessResponses is RawResponses without arbiter noise: the idealised
// expected responses at the current corner, evaluated in parallel.
func (dev *Device) NoiselessResponses(challenges [][]uint8, workers int) [][]uint8 {
	return dev.batcher().NoiselessResponses(challenges, nil, workers)
}

// MajorityResponses measures votes-fold temporal-majority responses for
// every challenge in parallel. votes must be odd.
func (dev *Device) MajorityResponses(challenges [][]uint8, votes, workers int) [][]uint8 {
	return dev.batcher().MajorityResponses(challenges, nil, votes, workers)
}

// RawResponses evaluates the batch with arbiter noise. dst, when non-nil,
// must have len(challenges) rows of ResponseBits bytes and is reused (the
// allocation-free steady state for blocked sweeps); pass nil to allocate.
func (be *BatchEvaluator) RawResponses(challenges, dst [][]uint8, workers int) [][]uint8 {
	return be.run(challenges, dst, workers, 1, true)
}

// NoiselessResponses evaluates the batch without arbiter noise.
func (be *BatchEvaluator) NoiselessResponses(challenges, dst [][]uint8, workers int) [][]uint8 {
	return be.run(challenges, dst, workers, 1, false)
}

// MajorityResponses evaluates the batch with votes-fold temporal majority
// voting per challenge (votes odd).
func (be *BatchEvaluator) MajorityResponses(challenges, dst [][]uint8, votes, workers int) [][]uint8 {
	if votes < 1 || votes%2 == 0 {
		panic(fmt.Sprintf("core: majority votes %d must be odd and positive", votes))
	}
	return be.run(challenges, dst, workers, votes, true)
}

// ResponseMatrix allocates a dst matrix for reuse across batch calls: rows
// response-width slices carved from one backing array.
func (be *BatchEvaluator) ResponseMatrix(rows int) [][]uint8 {
	return responseMatrix(rows, be.dev.design.ResponseBits())
}

func responseMatrix(rows, bits int) [][]uint8 {
	backing := make([]uint8, rows*bits)
	m := make([][]uint8, rows)
	for k := range m {
		m[k] = backing[k*bits : (k+1)*bits : (k+1)*bits]
	}
	return m
}

// ChallengeMatrix allocates a challenge matrix (rows × ChallengeBits) from
// one backing array, for batch producers to fill via ExpandChallengeInto.
func ChallengeMatrix(d *Design, rows int) [][]uint8 {
	bits := d.ChallengeBits()
	backing := make([]uint8, rows*bits)
	m := make([][]uint8, rows)
	for k := range m {
		m[k] = backing[k*bits : (k+1)*bits : (k+1)*bits]
	}
	return m
}

// run is the shared fan-out. Each item k is evaluated with a noise stream
// derived from (device noise seed, batch epoch, k): independent of the
// worker that runs it and of how many workers exist.
func (be *BatchEvaluator) run(challenges, dst [][]uint8, workers, votes int, noisy bool) [][]uint8 {
	dev := be.dev
	bits := dev.design.ResponseBits()
	chBits := 2 * dev.design.cfg.Width
	for k, ch := range challenges {
		if len(ch) != chBits {
			panic(fmt.Sprintf("core: challenge %d of %d bits, want %d", k, len(ch), chBits))
		}
	}
	if dst == nil {
		dst = responseMatrix(len(challenges), bits)
	} else if len(dst) < len(challenges) {
		panic(fmt.Sprintf("core: dst of %d rows for %d challenges", len(dst), len(challenges)))
	}
	dst = dst[:len(challenges)]
	epoch := dev.batchEpochs
	dev.batchEpochs++
	if len(challenges) == 0 {
		return dst
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(challenges) {
		workers = len(challenges)
	}

	// Per-batch constants, all read-only under the workers.
	tab := dev.tables[dev.cond]
	jitter := 0.0
	if noisy {
		jitter = dev.design.cfg.JitterPs * dev.jitterScale
	}
	noiseBase := dev.noise.Sub(fmt.Sprintf("batch/%d", epoch))

	if be.scalar {
		be.runGate(challenges, dst, workers, votes, noisy, jitter, noiseBase, tab)
	} else {
		be.runSliced(challenges, dst, workers, votes, noisy, jitter, noiseBase, tab)
	}

	dev.queries += uint64(len(challenges) * votes)
	batchItems.Add(uint64(len(challenges)))
	return dst
}

// runGate is the scalar gate-level fan-out: chunks of whole items across
// cloned scalar engines, one levelized pass per item. It is the reference
// the equivalence suite holds runSliced to; only package tests select it.
func (be *BatchEvaluator) runGate(challenges, dst [][]uint8, workers, votes int, noisy bool, jitter float64, noiseBase *rng.Source, tab delay.Table) {
	dev := be.dev
	bits := dev.design.ResponseBits()
	be.gate = workerEngines(be.gate, workers, tab, func() *sim.Engine {
		return sim.NewEngine(dev.design.datapath.Net, tab)
	})
	var next atomic.Int64
	work := func(eng *sim.Engine) {
		var noise rng.Source
		counts := make([]int, bits)
		deltas := make([]float64, bits)
		nbuf := make([]float64, bits)
		for {
			lo := int(next.Add(batchChunk)) - batchChunk
			if lo >= len(challenges) {
				return
			}
			hi := lo + batchChunk
			if hi > len(challenges) {
				hi = len(challenges)
			}
			for k := lo; k < hi; k++ {
				_, arr := eng.Run(challenges[k])
				dev.fillDeltas(arr, deltas)
				if noisy {
					noise.Reinit(noiseBase.SubSeedN("item", k))
				}
				respondFromDeltas(dst[k], counts, deltas, nbuf, 1, 0, &noise, jitter, votes, noisy)
			}
		}
	}
	if workers == 1 {
		// Sequential fast path: same item→noise mapping, no goroutines.
		work(be.gate[0])
	} else {
		var wg sync.WaitGroup
		for _, eng := range be.gate[:workers] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(eng)
			}()
		}
		wg.Wait()
	}
}

// runSliced is the bitsliced fan-out: workers claim whole 64-lane blocks,
// transpose the block's challenges into lane words, run one levelized pass
// for all lanes, extract per-lane arbiter deltas, then draw each item's
// noise from its own stream in exactly the scalar order — so the result is
// bit-identical to runGate at every worker count.
func (be *BatchEvaluator) runSliced(challenges, dst [][]uint8, workers, votes int, noisy bool, jitter float64, noiseBase *rng.Source, tab delay.Table) {
	dev := be.dev
	bits := dev.design.ResponseBits()
	nIn := 2 * dev.design.cfg.Width
	blocks := (len(challenges) + sim.Lanes - 1) / sim.Lanes
	if workers > blocks {
		workers = blocks
	}
	be.sliced = workerEngines(be.sliced, workers, tab, func() *sim.SlicedEngine {
		return sim.NewSlicedEngine(dev.design.datapath.Net, tab)
	})
	var next atomic.Int64
	work := func(eng *sim.SlicedEngine) {
		var noise rng.Source
		counts := make([]int, bits)
		inWords := make([]uint64, nIn)
		deltas := make([]float64, bits*sim.Lanes)
		nbuf := make([]float64, bits)
		var bcast [2][sim.Lanes]float64
		for {
			blk := int(next.Add(1)) - 1
			if blk >= blocks {
				return
			}
			lo := blk * sim.Lanes
			lanes := len(challenges) - lo
			if lanes > sim.Lanes {
				lanes = sim.Lanes
			}
			// Transpose: bit l of input word j is challenge lo+l's bit j.
			// Lane-outer order reads each challenge row sequentially and
			// keeps the word vector L1-resident. Tail lanes of a short
			// block stay zero (computed, never read).
			for j := range inWords {
				inWords[j] = 0
			}
			for l := 0; l < lanes; l++ {
				row := challenges[lo+l][:nIn]
				for j, bit := range row {
					inWords[j] |= uint64(bit&1) << l
				}
			}
			eng.RunBlock(inWords, lanes)
			extractLaneDeltas(dev, eng, deltas, &bcast)
			for l := 0; l < lanes; l++ {
				k := lo + l
				if noisy {
					noise.Reinit(noiseBase.SubSeedN("item", k))
				}
				respondFromDeltas(dst[k], counts, deltas, nbuf, sim.Lanes, l, &noise, jitter, votes, noisy)
			}
		}
	}
	if workers == 1 {
		work(be.sliced[0])
	} else {
		var wg sync.WaitGroup
		for _, eng := range be.sliced[:workers] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(eng)
			}()
		}
		wg.Wait()
	}
}

// extractLaneDeltas mirrors Device.arrivalDelta per lane, in the same
// floating-point operation order (arr1 + skew − arr0, then += extra), so the
// deltas are bit-identical to the scalar path. Pair nets whose arrival is
// challenge-independent (a sum fed by the constant carry-in) are broadcast
// into scratch rows.
func extractLaneDeltas(dev *Device, eng *sim.SlicedEngine, deltas []float64, bcast *[2][sim.Lanes]float64) {
	bits := dev.design.ResponseBits()
	for i := 0; i < bits; i++ {
		a0, a1 := dev.design.pair0[i], dev.design.pair1[i]
		skew := dev.design.skewPs[i]
		l0 := eng.ArrivalLanes(a0)
		if l0 == nil {
			c := eng.ConstArrival(a0)
			for l := range bcast[0] {
				bcast[0][l] = c
			}
			l0 = bcast[0][:]
		}
		l1 := eng.ArrivalLanes(a1)
		if l1 == nil {
			c := eng.ConstArrival(a1)
			for l := range bcast[1] {
				bcast[1][l] = c
			}
			l1 = bcast[1][:]
		}
		row := deltas[i*sim.Lanes : i*sim.Lanes+sim.Lanes]
		if dev.extraSkewPs != nil {
			extra := dev.extraSkewPs[i]
			for l := 0; l < sim.Lanes; l++ {
				d := l1[l] + skew - l0[l]
				d += extra
				row[l] = d
			}
		} else {
			for l := 0; l < sim.Lanes; l++ {
				row[l] = l1[l] + skew - l0[l]
			}
		}
	}
}

// respondFromDeltas turns precomputed arrival deltas into response bits:
// per-bit jitter draws (in ascending bit order, the scalar draw order) and
// thresholding, or votes-fold majority with noise redrawn per vote. Bit i's
// delta is deltas[i*stride+lane]: stride 1 for scalar layouts, sim.Lanes for
// lane-major bitsliced blocks. The engine pass behind the deltas is
// deterministic, so one pass serves every vote — only the arbiter noise
// differs. This is the one place a delta becomes a response bit: the batch
// fan-outs and the sequential Device queries (device.go) all end here.
//
// The jitter draws are buffered into nbuf (len = response bits) before the
// threshold pass: the draw order is unchanged, but the Norm calls run in a
// loop with nothing else live, and the add/compare loop runs call-free —
// measurably faster than interleaving a function call between every
// comparison on the batch hot path.
func respondFromDeltas(out []uint8, counts []int, deltas, nbuf []float64, stride, lane int, noise *rng.Source, jitter float64, votes int, noisy bool) {
	if noisy && jitter > 0 && votes == 1 {
		for i := range nbuf {
			nbuf[i] = noise.NormMS(0, jitter)
		}
		idx := lane
		for i := range out {
			var bit uint8
			if deltas[idx]+nbuf[i] > 0 {
				bit = 1
			}
			out[i] = bit
			idx += stride
		}
		return
	}
	if !noisy || jitter <= 0 {
		// Noiseless, or noisy with zero jitter: no draws happen, every vote
		// sees the same delta, so majority collapses to one threshold pass.
		idx := lane
		for i := range out {
			var bit uint8
			if deltas[idx] > 0 {
				bit = 1
			}
			out[i] = bit
			idx += stride
		}
		return
	}
	for i := range counts {
		counts[i] = 0
	}
	for v := 0; v < votes; v++ {
		for i := range nbuf {
			nbuf[i] = noise.NormMS(0, jitter)
		}
		idx := lane
		for i := range counts {
			if deltas[idx]+nbuf[i] > 0 {
				counts[i]++
			}
			idx += stride
		}
	}
	for i, c := range counts {
		var bit uint8
		if 2*c > votes {
			bit = 1
		}
		out[i] = bit
	}
}
