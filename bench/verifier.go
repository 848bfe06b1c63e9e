package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"pufatt/internal/attest"
	"pufatt/internal/core"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

// errReplayMiss is a challenge the recording has no response for: the
// verifier asked something the real prover was never asked.
var errReplayMiss = errors.New("replay: no recorded response for challenge")

// recording is one session recorded from a real prover during set-up, as
// the replay serves it (possibly tampered), and the verdict class the
// verifier must reach on it.
type recording struct {
	ch      attest.Challenge
	resp    attest.Response
	compute float64
	want    string
}

// replayTable indexes recordings by their full challenge.
type replayTable struct {
	recs []recording
	idx  map[attest.Challenge]int
}

func newReplayTable(recs []recording) (*replayTable, error) {
	t := &replayTable{recs: recs, idx: make(map[attest.Challenge]int, len(recs))}
	for k, r := range recs {
		if _, dup := t.idx[r.ch]; dup {
			return nil, fmt.Errorf("replay: challenge %+v recorded twice", r.ch)
		}
		t.idx[r.ch] = k
	}
	return t, nil
}

// replayAgent answers challenges from a recording, so the verifier's cost
// is measured without the simulated prover. It remembers which recording
// it served last; the server goroutine sets it and the client reads it.
type replayAgent struct {
	sc    *scope
	mu    sync.Mutex // guards table (tests edit it) and last
	table *replayTable
	last  int
}

func (a *replayAgent) Respond(ch attest.Challenge) (attest.Response, float64, error) {
	id := a.sc.leaf(spanProver)
	defer a.sc.end(id)
	a.mu.Lock()
	k, ok := a.table.idx[ch]
	a.last = -1
	if ok {
		a.last = k
	}
	a.mu.Unlock()
	if !ok {
		return attest.Response{}, 0, errReplayMiss
	}
	r := a.table.recs[k]
	return r.resp, r.compute, nil
}

func (a *replayAgent) served() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last
}

// recorder wraps a real prover and keeps what it was asked and answered.
type recorder struct {
	prover attest.ProverAgent
	got    []recording
}

func (r *recorder) Respond(ch attest.Challenge) (attest.Response, float64, error) {
	resp, compute, err := r.prover.Respond(ch)
	if err == nil {
		r.got = append(r.got, recording{ch: ch, resp: resp, compute: compute})
	}
	return resp, compute, err
}

// tamper corrupts every 16th recording's tag (full verification, then a
// mismatch) and pushes every 16th, offset 8, past the time bound (rejected
// before any checksum work), setting the verdict each must get.
func tamper(k int, r *recording, delta float64) {
	switch k % 16 {
	case 0:
		r.resp.Tag[0] ^= 1
		r.want = "attestation response mismatch"
	case 8:
		r.compute = delta
		r.want = "time bound exceeded"
	}
}

// verifierLoop is the "verifier" workload: the verifier tier alone, over
// one persistent loopback TCP connection to an attest.Server whose agent
// replays responses recorded from real provers during set-up. Each pass
// replays every recording once against verifiers built fresh for the pass.
type verifierLoop struct {
	eps       []*endpoint
	table     *replayTable
	agent     *replayAgent
	srv       *attest.Server
	addr      string
	sc        *scope
	conn      net.Conn
	verifiers []*attest.Verifier
	link      attest.Link
}

func setupVerifier(cfg config, seed uint64, sc *scope) (*verifierLoop, error) {
	root := rng.New(seed).Sub("verifier")
	image, err := swatt.BuildImage(paperParams, make([]uint32, 256))
	if err != nil {
		return nil, err
	}
	design, err := core.NewDesign(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	w := &verifierLoop{sc: sc, link: attest.DefaultLink()}
	for id := 0; id < cfg.verifierDevices; id++ {
		ep, err := newEndpoint(design, image, root, id)
		if err != nil {
			return nil, err
		}
		w.eps = append(w.eps, ep)
	}
	recs, err := recordSessions(w.eps, cfg.verifierPass, w.link)
	if err != nil {
		return nil, err
	}
	if w.table, err = newReplayTable(recs); err != nil {
		return nil, err
	}
	w.agent = &replayAgent{table: w.table, sc: sc}
	w.srv = &attest.Server{Agent: w.agent}
	addr, err := w.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.addr = addr.String()
	// One pass warms the TCP path and the emulators.
	for i := 0; i < cfg.verifierPass; i++ {
		r, err := w.op(i)
		if err == nil && r.failed {
			err = errors.New("failed op")
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return w, nil
}

// recordSessions runs n in-process sessions, round-robin over the
// endpoints, against the real provers on two workers, and returns them in
// replay order (recording k is session k/len(eps) of endpoint k%len(eps)),
// tampered and labelled with the verdict the replay must reach.
func recordSessions(eps []*endpoint, n int, link attest.Link) ([]recording, error) {
	recs := make([]recording, n)
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := w; d < len(eps); d += 2 {
				errs[d] = func() error {
					v, err := eps[d].verifier(nil)
					if err != nil {
						return err
					}
					rec := &recorder{prover: eps[d].prover}
					for k := d; k < n; k += len(eps) {
						res, err := attest.RunSession(v, rec, link)
						if err != nil {
							return fmt.Errorf("recording device %d: %w", d, err)
						}
						r := rec.got[len(rec.got)-1]
						r.want = verdictClass(res)
						tamper(k, &r, v.Delta())
						recs[k] = r
					}
					return nil
				}()
			}
		}(w)
	}
	wg.Wait()
	return recs, errors.Join(errs...)
}

func (w *verifierLoop) dial() error {
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		return err
	}
	w.conn = conn
	if w.sc != nil {
		w.conn = tracedConn{conn, w.sc}
	}
	return nil
}

func (w *verifierLoop) op(i int) (result, error) {
	k := i % len(w.table.recs)
	if k == 0 {
		w.verifiers = w.verifiers[:0]
		for _, ep := range w.eps {
			v, err := ep.verifier(w.sc)
			if err != nil {
				return result{}, err
			}
			w.verifiers = append(w.verifiers, v)
		}
	}
	d := k % len(w.eps)
	if w.conn == nil {
		if err := w.dial(); err != nil {
			return result{}, err
		}
	}
	rec := w.table.recs[k]
	res, err := attest.RequestContext(context.Background(), w.conn, w.verifiers[d], w.link)
	if err != nil {
		// The stream is out of step after a failure: redial for the next op.
		w.conn.Close()
		w.conn = nil
		return result{failed: true, device: d, session: rec.ch.Session}, nil
	}
	if got := w.agent.served(); got != k {
		return result{}, fmt.Errorf("verifier asked for recording %d, want %d", got, k)
	}
	r := result{verdict: verdictClass(res), device: d, session: rec.ch.Session, tag: rec.resp.Tag,
		compute: rec.compute, delta: res.Delta}
	if r.verdict != rec.want {
		return r, fmt.Errorf("recording %d: verdict %q (%s), want %q", k, r.verdict, res.Reason, rec.want)
	}
	return r, nil
}

func (w *verifierLoop) close() error {
	if w.conn != nil {
		w.conn.Close()
	}
	return w.srv.Close()
}
