package pufatt

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`): Figure 3 (inter-chip HD),
// Figure 4 (intra-chip HD + FNR), Table 1 (FPGA resources), the Section 4.1
// FPGA two-board measurement, and the Section 4.2 security analyses — plus
// the ablation benches DESIGN.md calls out. Custom metrics carry the
// scientific quantities (bits of Hamming distance, accuracies, cycle
// counts); ns/op carries the cost of producing them.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"pufatt/internal/attacks"
	"pufatt/internal/attest"
	"pufatt/internal/bch"
	"pufatt/internal/core"
	crpstore "pufatt/internal/crp/store"
	"pufatt/internal/delay"
	"pufatt/internal/ecc"
	"pufatt/internal/experiments"
	"pufatt/internal/fpga"
	"pufatt/internal/mcu"
	"pufatt/internal/netlist"
	"pufatt/internal/obfuscate"
	"pufatt/internal/rng"
	"pufatt/internal/sim"
	"pufatt/internal/slender"
	"pufatt/internal/stats"
	"pufatt/internal/swatt"
	"pufatt/internal/telemetry"
)

// --- Figure 3 ---

func BenchmarkFigure3InterChipHD(b *testing.B) {
	res, err := experiments.Figure3(core.DefaultConfig(), 2, b.N, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.RawMean(), "raw-HD-bits")
	b.ReportMetric(res.ObfMean(), "obf-HD-bits")
	b.ReportMetric(res.PaperRawMean, "paper-raw-bits")
	b.ReportMetric(res.PaperObfMean, "paper-obf-bits")
}

// --- Figure 4 ---

func BenchmarkFigure4IntraChipHD(b *testing.B) {
	res, err := experiments.Figure4(core.DefaultConfig(), b.N, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.MeanBits, "intra-HD-bits")
	b.ReportMetric(res.PaperMeanBits, "paper-bits")
	b.ReportMetric(100*res.PerBitErr, "bit-err-%")
}

func BenchmarkFigure4FalseNegativeRate(b *testing.B) {
	// Monte-Carlo FNR of the sketch at the measured per-bit error, against
	// the analytic models reported by Figure4.
	sketch := ecc.NewSketch(ecc.NewReedMuller15())
	src := rng.New(3)
	p := 0.0121 // 5-vote majority error rate at the calibrated jitter
	ref := make([]uint8, 32)
	src.Bits(ref)
	fails := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		noisy := append([]uint8(nil), ref...)
		for j := range noisy {
			if src.Float64() < p {
				noisy[j] ^= 1
			}
		}
		h, _ := sketch.Generate(noisy)
		rec, _, err := sketch.Recover(ecc.BitsToWord(ref), h)
		if err != nil || rec != ecc.BitsToWord(noisy) {
			fails++
		}
	}
	b.ReportMetric(float64(fails)/float64(b.N), "mc-FNR")
	b.ReportMetric(ecc.AnalyticFNR(32, 7, p), "analytic-FNR-t7")
	b.ReportMetric(1.53e-7, "paper-FNR")
}

// --- Table 1 ---

func BenchmarkTable1ResourceEstimate(b *testing.B) {
	var rows []fpga.ComponentRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = fpga.Table1(16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Component {
		case "ALU PUF":
			b.ReportMetric(float64(r.Estimate.LUTs), "alupuf-LUTs")
		case "PDL logic":
			b.ReportMetric(float64(r.Estimate.LUTs), "pdl-LUTs")
		case "Obfuscation logic":
			b.ReportMetric(float64(r.Estimate.LUTs), "obf-LUTs")
		}
	}
}

// --- Section 4.1 FPGA measurement ---

func BenchmarkFPGAMeasuredHD(b *testing.B) {
	res, err := experiments.FPGAMeasurement(fpga.DefaultConfig(), b.N, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.InterRaw.Mean(), "inter-raw-bits")
	b.ReportMetric(res.InterObf.Mean(), "inter-obf-bits")
	b.ReportMetric(res.Intra.Mean(), "intra-bits")
}

// --- Section 4.2: protocol and attacks ---

// protocolFixture builds the honest stack once per benchmark.
func protocolFixture(b *testing.B, params swatt.Params) (*attest.Prover, *attest.Verifier, attest.Link) {
	b.Helper()
	dev, err := core.NewDevice(core.MustNewDesign(core.DefaultConfig()), rng.New(11), 0)
	if err != nil {
		b.Fatal(err)
	}
	image, err := swatt.BuildImage(params, make([]uint32, 256))
	if err != nil {
		b.Fatal(err)
	}
	prover, verifier, err := attest.NewPair(dev, image)
	if err != nil {
		b.Fatal(err)
	}
	// A seeded challenge stream: session i of a fresh fixture always draws
	// the same nonce and PUF seed, so a rejected session can be replayed.
	verifier.Nonces = rng.New(15).Uint32
	link := attest.DefaultLink()
	verifier.AllowNetwork(link)
	return prover, verifier, link
}

// BenchmarkAttestationProtocol times one honest in-process session at a
// mid-size SWATT geometry, with the continuous profiler in each of its
// steady states: "bare" (no profiler), "armed" (capture ring enabled and
// the periodic ticker running at the default one-minute cadence — the
// everyday production configuration, which must cost nothing between
// captures) and "capturing" (a CPU profile actively sampling for the whole
// run — the worst case inside the 250 ms capture window, which the default
// duty cycle enters ~0.4% of the time). Compare each line's ns/op against
// bare for the profiler's overhead in that state.
func BenchmarkAttestationProtocol(b *testing.B) {
	params := swatt.Params{MemWords: 1024, Chunks: 8, BlocksPerChunk: 8, PRG: swatt.PRGMix32}
	run := func(b *testing.B, profile func(*telemetry.Profiler) (stop func())) {
		prover, verifier, link := protocolFixture(b, params)
		if profile != nil {
			p := telemetry.NewProfiler()
			p.SetDir(b.TempDir())
			defer profile(p)()
		}
		// Keep the current session's two challenge words for the log line
		// naming the first honest reject.
		draw, words, k := verifier.Nonces, [2]uint32{}, 0
		verifier.Nonces = func() uint32 { w := draw(); words[k&1] = w; k++; return w }
		accepted, logged := 0, false
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := attest.RunSession(verifier, prover, link)
			if err != nil {
				b.Fatal(err)
			}
			if res.Accepted {
				accepted++
			} else if !logged {
				logged = true
				b.Logf("first honest reject: session index %d of a fresh protocolFixture, nonce %#08x, PUF seed %#08x: %s",
					i, words[0], words[1], res.Reason)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(accepted)/float64(b.N), "accept-rate")
		if profile == nil {
			b.ReportMetric(verifier.Delta()*1e3, "delta-ms")
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, nil) })
	b.Run("armed", func(b *testing.B) {
		run(b, func(p *telemetry.Profiler) func() {
			return p.Start(telemetry.DefaultProfileInterval)
		})
	})
	b.Run("capturing", func(b *testing.B) {
		run(b, func(p *telemetry.Profiler) func() {
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					_, _, _ = p.Capture("bench", telemetry.CaptureMeta{})
				}
			}()
			return func() {
				close(done)
				wg.Wait()
			}
		})
	})
}

func BenchmarkOverclockingAttack(b *testing.B) {
	dev, _ := core.NewDevice(core.MustNewDesign(core.DefaultConfig()), rng.New(12), 0)
	port, _ := mcu.NewDevicePort(dev)
	b.ResetTimer()
	pts := attacks.OverclockSweep(dev, port, []float64{1.0, 1.5, 2.0, 2.5}, b.N, rng.New(13))
	b.ReportMetric(pts[0].InvalidBitFraction, "invalid-frac-x1.0")
	b.ReportMetric(pts[2].InvalidBitFraction, "invalid-frac-x2.0")
	b.ReportMetric(pts[3].ResponseHD, "HD-bits-x2.5")
}

func BenchmarkOracleProxyAttack(b *testing.B) {
	link := attest.DefaultLink()
	var t float64
	for i := 0; i < b.N; i++ {
		t = attacks.OracleAttackTime(64, link)
	}
	b.ReportMetric(t*1e3, "attack-ms-64chunks")
}

func BenchmarkMLModelingAttack(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Width = 16
	dev, _ := core.NewDevice(core.MustNewDesign(cfg), rng.New(14), 0)
	oracle, _ := attacks.NewObfuscatedOracle(dev)
	var rawAcc, obfAcc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := attacks.TrainRawModel(dev, 1500, 15, rng.New(15), 0)
		rawAcc = m.AccuracyRaw(dev, 300, rng.New(16), 0)
		mo := attacks.TrainObfuscatedModel(oracle, 1000, 15, rng.New(17), 0)
		obfAcc = mo.AccuracyObfuscated(oracle, 200, rng.New(18), 0)
	}
	b.ReportMetric(100*rawAcc, "raw-acc-%")
	b.ReportMetric(100*obfAcc, "obf-acc-%")
}

// --- Ablations (DESIGN.md) ---

func BenchmarkAblationTimingEngines(b *testing.B) {
	d := core.MustNewDesign(core.DefaultConfig())
	dev := core.MustNewDevice(d, rng.New(20), 0)
	nl := d.Datapath().Net
	m := d.DelayModel()
	chip := dev
	_ = chip
	tab := delay.BuildTable(m, nl, make([]float64, len(nl.Gates)), nil, delay.Nominal())
	in := make([]uint8, len(nl.Inputs))
	src := rng.New(21)

	b.Run("levelized", func(b *testing.B) {
		eng := sim.NewEngine(nl, tab)
		for i := 0; i < b.N; i++ {
			src.Bits(in)
			eng.Run(in)
		}
	})
	b.Run("event-driven", func(b *testing.B) {
		es := sim.NewEventSim(nl, tab)
		zero := make([]uint8, len(nl.Inputs))
		for i := 0; i < b.N; i++ {
			src.Bits(in)
			es.Settle(zero)
			es.Apply(in)
			es.Run()
		}
	})
}

func BenchmarkAblationDecoders(b *testing.B) {
	code := ecc.NewReedMuller15()
	src := rng.New(22)
	syndromes := make([]uint64, 256)
	for i := range syndromes {
		var e uint64
		for _, pos := range src.Perm(32)[:5] {
			e |= 1 << uint(pos)
		}
		syndromes[i] = code.Syndrome(e)
	}
	b.Run("coset-ML", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			code.CosetLeader(syndromes[i%len(syndromes)])
		}
	})
	b.Run("bounded-t7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			code.DecodeBounded(syndromes[i%len(syndromes)], 7) //nolint:errcheck
		}
	})
	b.Run("bch31-BM-chien", func(b *testing.B) {
		bchCode := bch.MustNew(5, 7)
		msg := make([]uint8, bchCode.K())
		cw, _ := bchCode.Encode(msg)
		corrupted := append([]uint8(nil), cw...)
		corrupted[3] ^= 1
		corrupted[17] ^= 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := bchCode.Decode(corrupted); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationObfuscation(b *testing.B) {
	// Inter-chip HD with no obfuscation, phase-1 only (fold), and the full
	// two-phase network — the quality each stage buys.
	d := core.MustNewDesign(core.DefaultConfig())
	master := rng.New(23)
	devA := core.MustNewDevice(d, master, 0)
	devB := core.MustNewDevice(d, master, 1)
	net := obfuscate.MustNew(32)
	src := rng.New(24)
	var raw, fold, full stats.Summary
	group := func(dev *core.Device, seed uint64) [][]uint8 {
		rs := make([][]uint8, 8)
		for j := range rs {
			rs[j] = dev.RawResponseCopy(d.ExpandChallenge(seed, j))
		}
		return rs
	}
	fold1 := func(rs [][]uint8) []uint8 {
		out := make([]uint8, 32)
		for i := 0; i < 16; i++ {
			out[i] = rs[0][i] ^ rs[0][i+16]
			out[16+i] = rs[1][i] ^ rs[1][i+16]
		}
		return out
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := src.Uint64()
		ga, gb := group(devA, seed), group(devB, seed)
		raw.Add(float64(stats.HammingDistance(ga[0], gb[0])))
		fold.Add(float64(stats.HammingDistance(fold1(ga), fold1(gb))))
		full.Add(float64(stats.HammingDistance(net.MustApply(ga), net.MustApply(gb))))
	}
	b.ReportMetric(raw.Mean(), "raw-bits")
	b.ReportMetric(fold.Mean(), "phase1-bits")
	b.ReportMetric(full.Mean(), "two-phase-bits")
}

func BenchmarkAblationPRG(b *testing.B) {
	// Checksum cycle cost per PRG choice (the speed/мixing trade).
	for _, prg := range []struct {
		name string
		prg  swatt.PRG
	}{{"mix32", swatt.PRGMix32}, {"tfunc", swatt.PRGTFunc}} {
		b.Run(prg.name, func(b *testing.B) {
			p := swatt.Params{MemWords: 1024, Chunks: 2, BlocksPerChunk: 8, PRG: prg.prg}
			im, err := swatt.BuildImage(p, nil)
			if err != nil {
				b.Fatal(err)
			}
			cycles, err := swatt.ExpectedCycles(im, 5)
			if err != nil {
				b.Fatal(err)
			}
			mem := im.Layout.AttestedRegion(im.Mem)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := swatt.Checksum(mem, uint32(i), p, func(uint32) (uint32, error) { return 0, nil }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cycles), "mcu-cycles")
		})
	}
}

func BenchmarkAblationVerification(b *testing.B) {
	// Emulation vs CRP database: per-authentication verifier cost and the
	// database's storage burden.
	d := core.MustNewDesign(core.DefaultConfig())
	dev := core.MustNewDevice(d, rng.New(25), 0)
	pl := core.MustNewPipeline(dev)
	seeds := make([]uint64, 512)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	db, err := EnrollCRPs(dev, seeds)
	if err != nil {
		b.Fatal(err)
	}
	out, err := pl.Query(seeds[0])
	if err != nil {
		b.Fatal(err)
	}
	b.Run("emulation", func(b *testing.B) {
		vp := core.MustNewVerifierPipeline(dev.Emulator())
		for i := 0; i < b.N; i++ {
			if _, err := vp.Recover(seeds[0], out.Helpers); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(0, "storage-bytes")
	})
	b.Run("crp-database", func(b *testing.B) {
		vp, err := core.NewVerifierPipelineFrom(db)
		if err != nil {
			b.Fatal(err)
		}
		db.Claim(seeds[0]) //nolint:errcheck
		for i := 0; i < b.N; i++ {
			if _, err := vp.Recover(seeds[0], out.Helpers); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(db.StorageBytes()), "storage-bytes")
	})
}

func BenchmarkAblationAdderArchitecture(b *testing.B) {
	// PUF quality of the paper's ripple-carry race vs a carry-lookahead
	// datapath: CLA's shallow, uniform paths accumulate less variation and
	// should extract less uniqueness per bit.
	measure := func(b *testing.B, kind netlist.AdderKind) (inter, intra float64) {
		cfg := core.DefaultConfig()
		cfg.Adder = kind
		d := core.MustNewDesign(cfg)
		master := rng.New(40)
		devA := core.MustNewDevice(d, master, 0)
		devB := core.MustNewDevice(d, master, 1)
		src := rng.New(41)
		var interS, intraS stats.Summary
		for i := 0; i < b.N; i++ {
			ch := d.ExpandChallenge(src.Uint64(), 0)
			ra := devA.RawResponseCopy(ch)
			rb := devB.RawResponseCopy(ch)
			interS.Add(float64(stats.HammingDistance(ra, rb)))
			intraS.Add(float64(stats.HammingDistance(ra, devA.RawResponse(ch))))
		}
		return interS.Mean(), intraS.Mean()
	}
	b.Run("ripple-carry", func(b *testing.B) {
		inter, intra := measure(b, netlist.AdderRCA)
		b.ReportMetric(inter, "inter-bits")
		b.ReportMetric(intra, "intra-bits")
	})
	b.Run("carry-lookahead", func(b *testing.B) {
		inter, intra := measure(b, netlist.AdderCLA)
		b.ReportMetric(inter, "inter-bits")
		b.ReportMetric(intra, "intra-bits")
	})
}

func BenchmarkAblationAging(b *testing.B) {
	// Reliability before wear, after a simulated decade of uniform wear
	// (stale enrollment), and after directed-aging burn-in (fresh
	// enrollment): the [13] response-tuning story.
	d := core.MustNewDesign(core.DefaultConfig())
	flipRate := func(dev *core.Device, refs map[uint64][]uint8) float64 {
		src := rng.New(42)
		var hd stats.Summary
		for i := 0; i < b.N; i++ {
			s := src.Uint64()
			ref, ok := refs[s]
			if !ok {
				continue
			}
			hd.Add(float64(stats.HammingDistance(ref, dev.RawResponse(d.ExpandChallenge(s, 0)))))
		}
		return hd.Mean() / 32
	}
	enroll := func(dev *core.Device) map[uint64][]uint8 {
		src := rng.New(42)
		refs := make(map[uint64][]uint8, b.N)
		for i := 0; i < b.N; i++ {
			s := src.Uint64()
			refs[s] = append([]uint8(nil), dev.NoiselessResponse(d.ExpandChallenge(s, 0))...)
		}
		return refs
	}
	dev := core.MustNewDevice(d, rng.New(43), 0)
	fresh := enroll(dev)
	b.ReportMetric(flipRate(dev, fresh), "err-fresh")
	dev.Age(87600, 0.5) // a decade at 50% duty, stale enrollment
	b.ReportMetric(flipRate(dev, fresh), "err-aged-stale")
	reenrolled := enroll(dev)
	b.ReportMetric(flipRate(dev, reenrolled), "err-aged-reenrolled")
	dev.ReinforcementAge(2000, 200) // directed burn-in + fresh enrollment
	burned := enroll(dev)
	b.ReportMetric(flipRate(dev, burned), "err-burned-in")
}

func BenchmarkAblationPipelineTiming(b *testing.B) {
	// Cycle cost of one attestation checksum under the flat vs 5-stage
	// pipelined CPU timing models (functionally identical; only CPI
	// accounting differs).
	p := swatt.Params{MemWords: 1024, Chunks: 2, BlocksPerChunk: 8, PRG: swatt.PRGMix32}
	im, err := swatt.BuildImage(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	measure := func(pipelined bool) uint64 {
		cp := im.Clone()
		cp.Layout.SetNonce(cp.Mem, 1)
		cpu := mcu.New(cp.Mem, 1e6, &mcu.StubPort{Votes: 5})
		cpu.Pipelined = pipelined
		if err := cpu.Run(1 << 40); err != nil {
			b.Fatal(err)
		}
		return cpu.Cycles
	}
	var flat, piped uint64
	for i := 0; i < b.N; i++ {
		flat = measure(false)
		piped = measure(true)
	}
	b.ReportMetric(float64(flat), "flat-cycles")
	b.ReportMetric(float64(piped), "pipelined-cycles")
}

func BenchmarkSideChannelAttack(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Width = 16
	dev := core.MustNewDevice(core.MustNewDesign(cfg), rng.New(50), 0)
	oracle, err := attacks.NewObfuscatedOracle(dev)
	if err != nil {
		b.Fatal(err)
	}
	var aggregate, perBit, countered float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := attacks.TrainWithSideChannel(oracle, attacks.PowerModel{SigmaHW: 0.5}, 400, 10, rng.New(51))
		aggregate = attacks.SideChannelZAccuracy(m, oracle, 100, rng.New(52))
		m = attacks.TrainWithSideChannel(oracle, attacks.PowerModel{SigmaHW: 0.3, PerBit: true}, 400, 10, rng.New(53))
		perBit = attacks.SideChannelZAccuracy(m, oracle, 100, rng.New(54))
		m = attacks.TrainWithSideChannel(oracle, attacks.PowerModel{SigmaHW: 0.3, PerBit: true, ConstantWeight: true}, 400, 10, rng.New(55))
		countered = attacks.SideChannelZAccuracy(m, oracle, 100, rng.New(56))
	}
	b.ReportMetric(100*aggregate, "z-acc-aggregate-%")
	b.ReportMetric(100*perBit, "z-acc-perbit-%")
	b.ReportMetric(100*countered, "z-acc-countermeasure-%")
}

func BenchmarkSlenderAuthentication(b *testing.B) {
	d := core.MustNewDesign(core.DefaultConfig())
	dev := core.MustNewDevice(d, rng.New(60), 0)
	pr, err := slender.NewProver(dev, slender.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	v, err := slender.NewVerifier(dev.Emulator(), slender.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(61)
	accepted := 0
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := slender.Authenticate(pr, v, src)
		if err != nil {
			b.Fatal(err)
		}
		if out.Accepted {
			accepted++
		}
		frac = out.BestFrac
	}
	b.ReportMetric(float64(accepted)/float64(b.N), "accept-rate")
	b.ReportMetric(frac, "match-frac")
}

// --- microbenchmarks of the hot paths ---

// BenchmarkBitsliceEval pins the bitsliced engine's single-worker throughput
// through the full batch pipeline (transpose, 64-lane levelized pass, delta
// extraction, per-item noise), alongside the effective lane-eval rate.
func BenchmarkBitsliceEval(b *testing.B) {
	d := core.MustNewDesign(core.DefaultConfig())
	dev := core.MustNewDevice(d, rng.New(35), 0)
	be := core.NewBatchEvaluator(dev)
	const batch = 256
	src := rng.New(36)
	challenges := core.ChallengeMatrix(d, batch)
	for k := range challenges {
		d.ExpandChallengeInto(challenges[k], src.Uint64(), 0)
	}
	dst := be.ResponseMatrix(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be.RawResponses(challenges, dst, 1)
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		evals := float64(batch) * float64(len(d.Datapath().Net.Order)) * float64(b.N)
		b.ReportMetric(evals/s, "gate-evals/s")
		b.ReportMetric(float64(batch)*float64(b.N)/s, "challenges/s")
	}
}

func BenchmarkRawResponse(b *testing.B) {
	d := core.MustNewDesign(core.DefaultConfig())
	dev := core.MustNewDevice(d, rng.New(30), 0)
	ch := d.ExpandChallenge(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.RawResponse(ch)
	}
}

func BenchmarkPipelineQuery(b *testing.B) {
	d := core.MustNewDesign(core.DefaultConfig())
	dev := core.MustNewDevice(d, rng.New(31), 0)
	pl := core.MustNewPipeline(dev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Query(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmulatorRespond(b *testing.B) {
	d := core.MustNewDesign(core.DefaultConfig())
	dev := core.MustNewDevice(d, rng.New(32), 0)
	em := dev.Emulator()
	ch := d.ExpandChallenge(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.Respond(ch)
	}
}

func BenchmarkMCUChecksum(b *testing.B) {
	dev := core.MustNewDevice(core.MustNewDesign(core.DefaultConfig()), rng.New(33), 0)
	port := mcu.MustNewDevicePort(dev)
	port.SetClock(500e6)
	p := swatt.Params{MemWords: 1024, Chunks: 2, BlocksPerChunk: 4, PRG: swatt.PRGMix32}
	im, err := swatt.BuildImage(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := im.Clone()
		run.Layout.SetNonce(run.Mem, uint32(i))
		cpu := mcu.New(run.Mem, 500e6, port)
		if err := cpu.Run(1 << 32); err != nil {
			b.Fatal(err)
		}
		port.DrainHelpers()
	}
}

func BenchmarkSyndromeGenerate(b *testing.B) {
	s := ecc.NewSketch(ecc.NewReedMuller15())
	resp := make([]uint8, 32)
	rng.New(34).Bits(resp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Generate(resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceHeaderEncode measures the frame codec with and without the
// v2 trace-header extension — the per-frame cost tracing adds to the
// attestation wire path (a 20-byte extension plus one extra CRC).
func BenchmarkTraceHeaderEncode(b *testing.B) {
	ch := attest.Challenge{Session: 1, Nonce: 0x1234, PUFSeed: 0x5678}
	tc := telemetry.TraceContext{Trace: 0x1111222233334444, Span: 0x5555666677778888}
	var buf bytes.Buffer
	b.Run("v1-untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := attest.WriteChallenge(&buf, ch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2-traced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := attest.WriteChallengeTraced(&buf, ch, tc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2-decode", func(b *testing.B) {
		buf.Reset()
		if err := attest.WriteChallengeTraced(&buf, ch, tc); err != nil {
			b.Fatal(err)
		}
		frame := buf.Bytes()
		rd := bytes.NewReader(frame)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(frame)
			if _, _, err := attest.ReadChallengeTraced(rd); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkJournalAppend measures the flight recorder's hot path: one
// structured event into the bounded ring. It must stay allocation-free so
// journaling never shows up in the session timing the protocol argues
// over.
func BenchmarkJournalAppend(b *testing.B) {
	j := telemetry.NewJournal(1024)
	ev := telemetry.Event{
		Trace:   0x1111222233334444,
		Session: 7,
		Device:  "node-3",
		Kind:    telemetry.EventChallengeSent,
		Detail:  "bench",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Append(ev)
	}
}

// BenchmarkHistoryCollect measures one full time-series collection pass —
// every counter, gauge, and histogram in a session-shaped registry into
// its windowed ring. The collector runs on a timer next to live
// attestation traffic, so after the first pass warms the ring cache it
// must stay allocation-free.
func BenchmarkHistoryCollect(b *testing.B) {
	reg := telemetry.NewRegistry()
	rtt := reg.Histogram("bench_rtt_seconds", "round-trip time", nil)
	sessions := reg.CounterVec("bench_sessions_total", "sessions by verdict", "verdict")
	rejects := reg.CounterVec("bench_rejections_total", "rejections by reason", "reason")
	firing := reg.Gauge("bench_alerts_firing", "alerts currently firing")
	for i := 0; i < 1024; i++ {
		rtt.ObserveExemplar(float64(i%16)*0.002, uint64(i+1))
		sessions.With("accepted").Inc()
		if i%9 == 0 {
			rejects.With("time_bound").Inc()
		}
	}
	firing.Set(1)
	ts := telemetry.NewTimeSeries(reg, 720, 5*time.Second)
	ts.Collect() // warm the per-series ring cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Collect()
	}
}

// BenchmarkExemplarObserve compares the RTT histogram's plain observation
// against the exemplar-carrying variant on the protocol hot path: the
// exemplar is one extra atomic store, so both must be allocation-free and
// within noise of each other.
func BenchmarkExemplarObserve(b *testing.B) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("bench_exemplar_seconds", "exemplar hot path", nil)
	b.Run("observe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.0123)
		}
	})
	b.Run("observe-exemplar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ObserveExemplar(0.0123, uint64(i+1))
		}
	})
}

// benchStorePool installs a synthetic enrollment (reference rows drawn
// once, shared) so the store benchmarks measure persistence machinery, not
// device simulation.
func benchStorePool(b *testing.B, n int) *crpstore.Store {
	b.Helper()
	const bits = 32
	row := make([]uint8, bits)
	rng.New(37).Bits(row)
	seeds := make([]uint64, n)
	refs := make([][]uint8, n*obfuscate.ResponsesPerOutput)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	for k := range refs {
		refs[k] = row
	}
	st, err := crpstore.Create(b.TempDir(), 0, bits, seeds, refs, crpstore.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkCRPStoreClaim measures the durable claim path — one WAL append
// per claim (NoSync: ordering preserved, fsync elided) — recycling the
// seed pool off the clock whenever it drains.
func BenchmarkCRPStoreClaim(b *testing.B) {
	const pool = 4096
	st := benchStorePool(b, pool)
	defer func() { st.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.NextUnusedWithEpoch(); err != nil {
			b.StopTimer()
			st.Close()
			st = benchStorePool(b, pool)
			b.StartTimer()
			if _, _, err := st.NextUnusedWithEpoch(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCRPStoreOpen measures verifier restart cost: snapshot load
// (4096 seeds × 8 references) plus replay of a 512-record claim WAL.
func BenchmarkCRPStoreOpen(b *testing.B) {
	st := benchStorePool(b, 4096)
	for i := 0; i < 512; i++ {
		if _, _, err := st.NextUnusedWithEpoch(); err != nil {
			b.Fatal(err)
		}
	}
	dir := st.Dir()
	st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := crpstore.Open(dir, crpstore.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		re.Close()
	}
}

// BenchmarkCRPStoreCompact measures folding a full claim WAL into a fresh
// snapshot (write + atomic rename, fsync elided).
func BenchmarkCRPStoreCompact(b *testing.B) {
	st := benchStorePool(b, 4096)
	defer func() { st.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if st.Remaining() == 0 {
			st.Close()
			st = benchStorePool(b, 4096)
		}
		if _, _, err := st.NextUnusedWithEpoch(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := st.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- PR 6: epoch lifecycle (device lifetime) ---

// benchEpochDevice is a small-width device for the re-enrollment benches:
// epoch cutover cost is dominated by protocol I/O and measurement fan-out,
// not simulator width.
func benchEpochDevice() *core.Device {
	cfg := core.DefaultConfig()
	cfg.Width = 16
	return core.MustNewDevice(core.MustNewDesign(cfg), rng.New(3), 5)
}

func benchEpochSeeds(epoch uint32, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(epoch)<<32 | uint64(i+1)
	}
	return out
}

// BenchmarkEpochReenrollThroughput measures one full rolling re-enrollment
// per iteration: reconfigure the device to the next epoch, measure 64
// seeds x 8 references on the parallel batch engine, stage the snapshot
// durably, and commit the cutover. The seeds/s metric is the enrollment
// pipeline's sustained throughput.
func BenchmarkEpochReenrollThroughput(b *testing.B) {
	const seedsPerEpoch = 64
	dev := benchEpochDevice()
	st, err := crpstore.Enroll(b.TempDir(), dev, benchEpochSeeds(0, seedsPerEpoch), 0,
		crpstore.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch := uint32(i + 1)
		dev.SetEpoch(epoch)
		if err := st.Reenroll(dev, benchEpochSeeds(epoch, seedsPerEpoch), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(seedsPerEpoch)*float64(b.N)/b.Elapsed().Seconds(), "seeds/s")
}

// BenchmarkEpochCutoverLatency isolates StagedEpoch.Commit — the
// gate-exclusive window live attestation sessions wait on during a
// cutover: transition-record append, snapshot rename, WAL reset, and the
// in-memory swap. Staging (the expensive measurement) happens off-clock,
// exactly as it does under the Reenroller.
func BenchmarkEpochCutoverLatency(b *testing.B) {
	const seedsPerEpoch = 64
	dev := benchEpochDevice()
	st, err := crpstore.Enroll(b.TempDir(), dev, benchEpochSeeds(0, seedsPerEpoch), 0,
		crpstore.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		epoch := uint32(i + 1)
		dev.SetEpoch(epoch)
		staged, err := st.StageEpoch(dev, benchEpochSeeds(epoch, seedsPerEpoch), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := staged.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
