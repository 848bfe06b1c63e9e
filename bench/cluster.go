package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pufatt/internal/attest"
	"pufatt/internal/attest/cluster"
	"pufatt/internal/core"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

// loadParams is the load engine's small attestation geometry (512 words,
// 2 chunks of 2 blocks), so routing, admission and replication are a large
// share of a cluster session.
var loadParams = swatt.Params{MemWords: 512, Chunks: 2, BlocksPerChunk: 2, PRG: swatt.PRGMix32}

// clusterPolicy is the load engine's retry budget.
var clusterPolicy = attest.RetryPolicy{MaxAttempts: 3}

// clusterLoop is the "cluster" workload: sessions through
// cluster.Cluster.Attest in a closed loop with one client. Set-up runs the
// schedule once through a cluster of real provers wrapped in recorders;
// every pass of the timed phase then replays it through a fresh cluster
// whose agents serve the recording. Each pass's cluster is built just
// before its pass, untimed, so the heap holds one cluster at a time.
type clusterLoop struct {
	sched   []int       // device of each scheduled session
	recs    []recording // per scheduled session
	table   *replayTable
	eps     []*endpoint
	enrs    []*cluster.Enrollment
	minOps  int
	seconds time.Duration
	sc      *scope
}

func setupCluster(cfg config, seed uint64, seconds time.Duration, sc *scope) (*clusterLoop, error) {
	root := rng.New(seed).Sub("cluster")
	image, err := swatt.BuildImage(loadParams, make([]uint32, 64))
	if err != nil {
		return nil, err
	}
	design, err := core.NewDesign(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	w := &clusterLoop{minOps: cfg.minOps, seconds: seconds, sc: sc}
	src := root.Sub("schedule")
	count := make([]int, cfg.clusterDevices)
	for i := 0; i < cfg.clusterPass; i++ {
		d := src.Intn(cfg.clusterDevices)
		w.sched = append(w.sched, d)
		count[d]++
	}
	w.eps = make([]*endpoint, cfg.clusterDevices)
	for id := range w.eps {
		if w.eps[id], err = newEndpoint(design, image, root, id); err != nil {
			return nil, err
		}
	}
	if w.enrs, err = enroll(w.eps, count); err != nil {
		return nil, err
	}

	// Record: the schedule once through real provers.
	recorders := make([]*recorder, len(w.eps))
	agents := make([]attest.ProverAgent, len(w.eps))
	for id, ep := range w.eps {
		recorders[id] = &recorder{prover: ep.prover}
		agents[id] = recorders[id]
	}
	rc, err := newCluster(w.eps, w.enrs, agents, nil)
	if err != nil {
		return nil, err
	}
	verdicts := make([]string, len(w.sched))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for wk := 0; wk < 2; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i, d := range w.sched {
				if d%2 != wk {
					continue
				}
				res, attempts, err := rc.Attest(context.Background(), d, clusterPolicy)
				if err == nil && attempts != 1 {
					err = fmt.Errorf("%d attempts", attempts)
				}
				if err != nil {
					errs[wk] = fmt.Errorf("recording session %d on device %d: %w", i, d, err)
					return
				}
				verdicts[i] = verdictClass(res)
			}
		}(wk)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := checkAudit(rc, len(w.sched)); err != nil {
		return nil, fmt.Errorf("recording cluster: %w", err)
	}
	next := make([]int, len(w.eps))
	for i, d := range w.sched {
		r := recorders[d].got[next[d]]
		next[d]++
		r.want = verdicts[i]
		w.recs = append(w.recs, r)
	}
	w.table, err = newReplayTable(w.recs)
	return w, err
}

// enroll measures each device's enrollment — count[d] sessions × 3
// attempts + 4 seeds, the load engine's sizing — on two workers.
func enroll(eps []*endpoint, count []int) ([]*cluster.Enrollment, error) {
	enrs := make([]*cluster.Enrollment, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for wk := 0; wk < 2; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for id := wk; id < len(eps); id += 2 {
				seeds := make([]uint64, count[id]*clusterPolicy.MaxAttempts+4)
				for k := range seeds {
					seeds[k] = uint64(id)<<20 | uint64(k+1)
				}
				enrs[id], errs[id] = cluster.NewEnrollment(eps[id].dev, seeds)
			}
		}(wk)
	}
	wg.Wait()
	return enrs, errors.Join(errs...)
}

// newCluster builds a 3-shard cluster (64 vnodes, 3 replicas, default
// admission) with every device enrolled and bound to its agent. Each device
// gets a fresh verifier, so every cluster starts the same session streams.
func newCluster(eps []*endpoint, enrs []*cluster.Enrollment, agents []attest.ProverAgent, sc *scope) (*cluster.Cluster, error) {
	c, err := cluster.New(cluster.Config{Shards: []string{"shard-0", "shard-1", "shard-2"}, VNodes: 64, Replicas: 3})
	if err != nil {
		return nil, err
	}
	link := attest.DefaultLink()
	for id, ep := range eps {
		g, err := c.Enroll(enrs[id])
		if err != nil {
			return nil, err
		}
		v, err := ep.verifier(sc)
		if err != nil {
			return nil, err
		}
		v.PUFEpoch = enrs[id].Epoch()
		v.Seeds = seedBudget(g, sc)
		if err := c.Bind(id, v, agents[id], link); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// checkAudit requires a clean merged claim audit with one claim frame per
// session.
func checkAudit(c *cluster.Cluster, sessions int) error {
	a := c.AuditClaims()
	if !a.Clean() {
		return fmt.Errorf("claim audit: %v", a.Violations)
	}
	if a.Frames != sessions {
		return fmt.Errorf("claim audit: %d frames for %d sessions", a.Frames, sessions)
	}
	return nil
}

// run times whole passes until at least w.seconds of them have passed and
// w.minOps ops have run: each pass a fresh replay cluster, built untimed,
// then the schedule.
func (w *clusterLoop) run(trace bool) (*phase, error) {
	n := len(w.sched)
	ph := &phase{}
	runtime.GC()
	for p := 0; p == 0 || ph.ops < w.minOps || ph.wall < w.seconds; p++ {
		agents := make([]*replayAgent, len(w.eps))
		bound := make([]attest.ProverAgent, len(w.eps))
		for id := range w.eps {
			agents[id] = &replayAgent{table: w.table, sc: w.sc}
			bound[id] = agents[id]
		}
		c, err := newCluster(w.eps, w.enrs, bound, w.sc)
		if err != nil {
			return nil, err
		}
		ph.start()
		err = w.runPass(ph, c, agents, p, trace)
		ph.stop()
		if err != nil {
			return nil, err
		}
		if err := checkAudit(c, n); err != nil {
			ph.problems = append(ph.problems, fmt.Sprintf("pass %d: %v", p, err))
		}
	}
	// Every pass replays the same sessions, so counts over the whole run
	// are the exact per-op counts of one pass.
	ph.counts = ph.counted.perOp(counterSnapshot{}, ph.ops)
	return ph, nil
}

// runPass drives pass p's schedule through c, one session after another;
// op i of the pass is op p×len(sched)+i of the run.
func (w *clusterLoop) runPass(ph *phase, c *cluster.Cluster, agents []*replayAgent, p int, trace bool) error {
	first := p * len(w.sched)
	prevEnd := time.Now()
	for i, d := range w.sched {
		traced := traceOp(trace, first+i)
		w.sc.begin(spanVerifier, first+i, traced)
		start := time.Now()
		res, attempts, err := c.Attest(context.Background(), d, clusterPolicy)
		end := time.Now()
		w.sc.finish()
		ph.ops++
		ph.attempts += attempts
		ph.latMs = append(ph.latMs, ms(end.Sub(start)))
		ph.lagMs = append(ph.lagMs, ms(start.Sub(prevEnd)))
		ph.traced = append(ph.traced, traced)
		prevEnd = end
		rec := w.recs[i]
		r := result{device: d, session: rec.ch.Session}
		if err != nil {
			r.failed = true
			ph.failed++
		} else {
			r.verdict, r.tag, r.compute, r.delta = verdictClass(res), rec.resp.Tag, rec.compute, res.Delta
			if got := agents[d].served(); got != i {
				return fmt.Errorf("session %d: device %d served recording %d", first+i, d, got)
			}
			if r.verdict != rec.want {
				return fmt.Errorf("session %d: verdict %q (%s), want %q", first+i, r.verdict, res.Reason, rec.want)
			}
		}
		if p == 0 {
			ph.records = append(ph.records, r)
		}
	}
	return nil
}

func (w *clusterLoop) close() error { return nil }
