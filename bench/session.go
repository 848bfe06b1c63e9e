package main

import (
	"fmt"

	"pufatt/internal/attest"
	"pufatt/internal/core"
	"pufatt/internal/mcu"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

// paperParams is the paper's attestation geometry: 1024 attested words,
// 8 chunks of 8 blocks, the Mix32 generator.
var paperParams = swatt.Params{MemWords: 1024, Chunks: 8, BlocksPerChunk: 8, PRG: swatt.PRGMix32}

// endpoint is one simulated device: its honest prover and a verifier
// template whose copies start a fresh session stream.
type endpoint struct {
	id       int
	dev      *core.Device
	prover   *attest.Prover
	template attest.Verifier
	nonces   uint64 // seed of the verifier's nonce stream
}

// newEndpoint builds device id of a workload seeded by root: the device,
// its prover clocked just under the PUF's reliability limit, and a
// verifier that allows the default link.
func newEndpoint(design *core.Design, image *swatt.Image, root *rng.Source, id int) (*endpoint, error) {
	dev, err := core.NewDevice(design, rng.New(root.SubSeedN("device", id)), id)
	if err != nil {
		return nil, err
	}
	port, err := mcu.NewDevicePort(dev)
	if err != nil {
		return nil, err
	}
	prover := attest.NewProver(image.Clone(), port, 1)
	prover.TuneClock(0.98)
	v, err := attest.NewVerifier(image, dev.Emulator(), prover.FreqHz, port.Votes)
	if err != nil {
		return nil, err
	}
	v.AllowNetwork(attest.DefaultLink())
	return &endpoint{id: id, dev: dev, prover: prover, template: *v, nonces: root.SubSeedN("nonces", id)}, nil
}

// verifier returns a verifier that starts the endpoint's session stream
// from its first session, over a fresh emulator (traced when sc is set).
func (e *endpoint) verifier(sc *scope) (*attest.Verifier, error) {
	v := e.template
	pipe, err := core.NewVerifierPipelineFrom(referenceSource(e.dev, sc))
	if err != nil {
		return nil, err
	}
	v.Pipeline = pipe
	v.Nonces = rng.New(e.nonces).Uint32
	return &v, nil
}

// sessionAgent is the honest prover as the session workload drives it: a
// traced run takes the rebuilt, instrumented Respond on every op. It keeps
// the last response for the pinned digest.
type sessionAgent struct {
	prover  *attest.Prover
	sc      *scope
	last    attest.Response
	compute float64
}

func (a *sessionAgent) Respond(ch attest.Challenge) (attest.Response, float64, error) {
	var (
		resp    attest.Response
		compute float64
		err     error
	)
	if a.sc == nil {
		resp, compute, err = a.prover.Respond(ch)
	} else {
		id := a.sc.open(spanProver)
		resp, compute, err = respondTraced(a.prover, a.sc, ch)
		a.sc.close(id)
	}
	a.last, a.compute = resp, compute
	return resp, compute, err
}

// sessionLoop is the "session" workload: full in-process attestation
// sessions, the simulated prover included, round-robin over the devices.
type sessionLoop struct {
	verifiers []*attest.Verifier
	agents    []*sessionAgent
	link      attest.Link
}

func setupSession(cfg config, seed uint64, sc *scope) (*sessionLoop, error) {
	root := rng.New(seed).Sub("session")
	image, err := swatt.BuildImage(paperParams, make([]uint32, 256))
	if err != nil {
		return nil, err
	}
	design, err := core.NewDesign(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	w := &sessionLoop{link: attest.DefaultLink()}
	for id := 0; id < cfg.sessionDevices; id++ {
		ep, err := newEndpoint(design, image, root, id)
		if err != nil {
			return nil, err
		}
		v, err := ep.verifier(sc)
		if err != nil {
			return nil, err
		}
		w.verifiers = append(w.verifiers, v)
		w.agents = append(w.agents, &sessionAgent{prover: ep.prover, sc: sc})
	}
	for i := 0; i < cfg.sessionWarmup; i++ {
		if _, err := w.op(i); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

func (w *sessionLoop) op(i int) (result, error) {
	d := i % len(w.verifiers)
	a := w.agents[d]
	res, err := attest.RunSession(w.verifiers[d], a, w.link)
	if err != nil {
		return result{failed: true, device: d}, nil
	}
	r := result{verdict: verdictClass(res), device: d, session: a.last.Session, tag: a.last.Tag,
		compute: a.compute, delta: res.Delta}
	// An honest prover may fail the PUF's error correction (a deterministic
	// "attestation response mismatch"), but nothing else.
	if r.verdict != "ok" && r.verdict != "attestation response mismatch" {
		return r, fmt.Errorf("device %d session %d: honest prover rejected: %s", d, r.session, res.Reason)
	}
	return r, nil
}

func (w *sessionLoop) close() error { return nil }
