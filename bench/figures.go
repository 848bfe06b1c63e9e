package main

import (
	"fmt"

	"pufatt/internal/core"
	"pufatt/internal/experiments"
)

// figuresLoop is the "figures" workload: the paper's Figure 3 and Figure 4
// campaigns on the bitsliced batch engine, one call of each per op. Call c
// of the stream (Figure3 on even c, Figure4 on odd) uses seed+c. Each call
// runs on one worker: a second worker would time how much of the second
// vCPU the host's other tenants leave free.
type figuresLoop struct {
	seed  uint64
	seeds int
	sc    *scope
}

func setupFigures(cfg config, seed uint64, sc *scope) (*figuresLoop, error) {
	w := &figuresLoop{seed: seed, seeds: cfg.figureSeeds, sc: sc}
	for i := 0; i < cfg.figureWarmup; i++ {
		if _, err := w.op(i); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

func (w *figuresLoop) op(i int) (result, error) {
	cfg := core.DefaultConfig()
	id := w.sc.leaf(spanFigure3)
	f3, err := experiments.Figure3(cfg, 2, w.seeds, w.seed+uint64(2*i), 1)
	w.sc.end(id)
	if err != nil {
		return result{failed: true, session: uint64(i)}, nil
	}
	id = w.sc.leaf(spanFigure4)
	f4, err := experiments.Figure4(cfg, w.seeds, w.seed+uint64(2*i+1), 1)
	w.sc.end(id)
	if err != nil {
		return result{failed: true, session: uint64(i)}, nil
	}
	// Every seed lands in every histogram once (two chips: one pair).
	// Obfuscated responses of two chips differ in about half their bits,
	// and one chip's responses differ from its reference in a few bits; the
	// bounds hold with margin over seeds 0-2999. (The raw inter-chip mean
	// depends too much on which two chips a seed draws to bound.)
	r := result{session: uint64(i)}
	hists := [][]int64{f3.RawHist.Counts, f3.ObfHist.Counts}
	for _, c := range f4.Corners {
		hists = append(hists, c.Hist.Counts)
	}
	for _, h := range hists {
		var total int64
		for _, c := range h {
			total += c
		}
		if total != int64(w.seeds) {
			return r, fmt.Errorf("pair %d: histogram holds %d of %d seeds", i, total, w.seeds)
		}
		r.hist = append(r.hist, h...)
	}
	if m := f3.ObfMean(); m < 10 || m > 22 {
		return r, fmt.Errorf("pair %d: Figure 3 obfuscated inter-chip mean %.2f bits", i, m)
	}
	if m := f4.MeanBits; m < 0.5 || m > 10 {
		return r, fmt.Errorf("pair %d: Figure 4 intra-chip mean %.2f bits", i, m)
	}
	return r, nil
}

func (w *figuresLoop) close() error { return nil }
