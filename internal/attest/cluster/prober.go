package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"pufatt/internal/attest"
	"pufatt/internal/core"
	"pufatt/internal/crp"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
	"pufatt/internal/telemetry"
)

// Synthetic canary probing: every metric the cluster emits today is
// traffic-dependent — a shard with no organic sessions has no RTT
// histogram, no failure ratio, nothing for the burn-rate rules to judge,
// and "no data" silently reads as "healthy". The Prober closes that gap by
// running low-rate end-to-end attestation sessions against a synthetic
// canary device pinned to each shard: the full protocol (challenge, PUF
// checksum, timing verdict) through the shard's real admission gate, so
// the probe measures exactly what a production session would experience.
//
// Isolation contract: the canary device is NOT enrolled in the cluster.
// Its seed budget is a private claim-only crp.Ledger (the canary's verifier
// emulates references, so none are measured) — never a replicated Group —
// so probes cannot burn production seeds, appear in claim-log audits, or
// contend on any device's binding mutex. The only cluster state a probe
// touches is the shard's admission gate, deliberately: queue pressure is
// part of what the canary exists to feel.

// DefaultProbeSeeds is the per-shard canary seed budget. Probes are
// low-rate by design; at one probe a minute this lasts ~17 hours before
// the canary itself reports exhausted (which is a probe failure — a canary
// that can no longer probe must page, not vanish).
const DefaultProbeSeeds = 1024

// canaryChipBase offsets canary chip IDs far above any production fleet's
// so a canary PUF can never collide with an enrolled device's identity.
const canaryChipBase = 1 << 24

// ProberConfig sizes a cluster's canary prober.
type ProberConfig struct {
	// Seeds is the per-shard canary seed budget (default DefaultProbeSeeds).
	Seeds int
	// Seed is the master seed for canary devices and nonce streams
	// (default 1). Probe behaviour is a pure function of (Seed, FaultSeed,
	// Plan(s)) — the determinism the tests pin down.
	Seed uint64
	// Plan injects last-hop faults on every canary link (zero = clean).
	Plan attest.FaultPlan
	// Plans overrides Plan per shard — tests fault one shard's canary
	// while the rest probe clean.
	Plans map[string]attest.FaultPlan
	// FaultSeed seeds the fault schedules (default 1).
	FaultSeed uint64
	// MaxAttempts is the probe session's retry budget (default 2 — probes
	// should report flaky transport, not paper over it).
	MaxAttempts int
}

func (pc ProberConfig) withDefaults() ProberConfig {
	if pc.Seeds <= 0 {
		pc.Seeds = DefaultProbeSeeds
	}
	if pc.Seed == 0 {
		pc.Seed = 1
	}
	if pc.FaultSeed == 0 {
		pc.FaultSeed = 1
	}
	if pc.MaxAttempts <= 0 {
		pc.MaxAttempts = 2
	}
	return pc
}

// loadParams is the deliberately small SWATT geometry canary devices (and
// the cluster tests' simulated fleets) run: big enough to exercise the full
// protocol (checksum, helper recovery, timing bound), small enough that one
// session costs well under a millisecond.
func loadParams() swatt.Params {
	return swatt.Params{MemWords: 512, Chunks: 2, BlocksPerChunk: 2, PRG: swatt.PRGMix32}
}

// canary is one shard's probe endpoint.
type canary struct {
	shard string

	mu       sync.Mutex // serialises probes (verifier session state) and guards budget
	verifier *attest.Verifier
	agent    attest.ProverAgent
	link     attest.Link
	budget   *crp.Ledger
	status   ProbeStatus
}

// ProbeStatus is one shard's canary state, served at /probes. A shard
// whose Sessions is zero has never been probed — "no data", which the
// dashboards must render distinctly from healthy.
type ProbeStatus struct {
	Shard string `json:"shard"`
	Alive bool   `json:"alive"`

	Sessions   int `json:"sessions"`
	Accepted   int `json:"accepted"`
	Rejected   int `json:"rejected"`
	Transport  int `json:"transport"`
	Overloaded int `json:"overloaded"`
	Errors     int `json:"errors"`

	// LastVerdict classifies the most recent probe: accepted, rejected,
	// transport, overload, or error ("" before the first probe).
	LastVerdict    string  `json:"last_verdict,omitempty"`
	LastReason     string  `json:"last_reason,omitempty"`
	LastRTTSeconds float64 `json:"last_rtt_seconds,omitempty"`
	LastTrace      string  `json:"last_trace,omitempty"`
	SeedsRemaining int     `json:"seeds_remaining"`
	LastUnixNano   int64   `json:"last_unix_ns,omitempty"`
}

// Prober runs the per-shard synthetic canaries.
type Prober struct {
	c        *Cluster
	cfg      ProberConfig
	canaries map[string]*canary
}

// NewProber builds one canary endpoint per shard and attaches the prober
// to the cluster (so AdminMux serves /probes). Canary devices are
// simulated with loadParams' geometry, so probing is negligible load.
func NewProber(c *Cluster, cfg ProberConfig) (*Prober, error) {
	cfg = cfg.withDefaults()
	design := core.MustNewDesign(core.DefaultConfig())
	params := loadParams()
	image, err := swatt.BuildImage(params, make([]uint32, 64))
	if err != nil {
		return nil, err
	}
	link := attest.DefaultLink()

	p := &Prober{c: c, cfg: cfg, canaries: make(map[string]*canary, len(c.order))}
	for i, sid := range c.order {
		chip := canaryChipBase + i
		dev, err := core.NewDevice(design, rng.New(cfg.Seed+uint64(chip)), chip)
		if err != nil {
			return nil, fmt.Errorf("cluster: canary for shard %s: %w", sid, err)
		}
		seeds := make([]uint64, cfg.Seeds)
		for k := range seeds {
			seeds[k] = uint64(chip)<<20 | uint64(k+1)
		}
		enr, err := crp.NewEnrollment(chip, design.ResponseBits(), dev.Epoch(), seeds, nil)
		if err != nil {
			return nil, fmt.Errorf("cluster: canary for shard %s: %w", sid, err)
		}
		budget := crp.NewLedger(enr)
		prover, v, err := attest.NewPair(dev, image)
		if err != nil {
			return nil, fmt.Errorf("cluster: canary for shard %s: %w", sid, err)
		}
		v.WithSeedBudget(budget)
		v.Device = "canary-" + sid
		v.Nonces = rng.New(cfg.Seed + uint64(chip)*7 + 3).Uint32
		v.AllowNetwork(link)
		plan := cfg.Plan
		if override, ok := cfg.Plans[sid]; ok {
			plan = override
		}
		var agent attest.ProverAgent = prover
		if plan != (attest.FaultPlan{}) {
			agent = attest.NewFaultyLink(prover, plan, cfg.FaultSeed+uint64(i))
		}
		p.canaries[sid] = &canary{
			shard: sid, verifier: v, agent: agent, link: link, budget: budget,
			status: ProbeStatus{Shard: sid, SeedsRemaining: budget.Remaining()},
		}
	}
	c.prober.Store(p)
	return p, nil
}

// Prober returns the canary prober attached to the cluster (nil if none).
func (c *Cluster) Prober() *Prober { return c.prober.Load() }

// ProbeOnce probes one shard: a full end-to-end attestation session
// against the shard's canary, through its real admission gate, under a
// "cluster.probe" root span. The outcome updates the shard's ProbeStatus
// and the cluster_probe_* metrics; probe errors are data, not failures of
// the prober itself.
func (p *Prober) ProbeOnce(ctx context.Context, shard string) (out ProbeStatus, _ error) {
	cn := p.canaries[shard]
	if cn == nil {
		return ProbeStatus{}, fmt.Errorf("cluster: unknown shard %q", shard)
	}
	met := p.c.met
	tracer := p.c.tel.Tracer

	cn.mu.Lock()
	defer cn.mu.Unlock()

	sp := tracer.StartSpan("cluster.probe")
	defer sp.Finish()
	sp.SetAttr("shard", shard)

	st := &cn.status
	st.Alive = p.c.shardAlive(shard)
	st.Sessions++
	st.LastTrace = sp.TraceID().String()
	st.LastUnixNano = tracer.Now().UnixNano()
	met.ProbeAttempts.With(shard).Inc()

	verdict := "error"
	reason := ""
	// Deferred so every return path classifies; the named result is
	// reassigned here because the bare returns below copy the status BEFORE
	// this defer fills in the verdict fields.
	defer func() {
		st.LastVerdict = verdict
		st.LastReason = reason
		st.SeedsRemaining = cn.budget.Remaining()
		sp.SetAttr("verdict", verdict)
		met.ProbeSessions.With(shard, verdict).Inc()
		if verdict != "accepted" {
			met.ProbeFailures.With(shard).Inc()
		}
		out = *st
	}()

	if !st.Alive {
		verdict, reason = "error", ErrShardDown.Error()
		st.Errors++
		return *st, nil
	}

	spWait := sp.Child("queue.wait")
	spWait.SetAttr("shard", shard)
	release, _, err := p.c.shards[shard].adm.acquire(ctx)
	spWait.Finish()
	if err != nil {
		if IsOverload(err) {
			verdict = "overload"
			st.Overloaded++
		} else {
			st.Errors++
		}
		reason = err.Error()
		return *st, nil
	}
	defer release()

	policy := attest.RetryPolicy{MaxAttempts: p.cfg.MaxAttempts, JitterSeed: p.cfg.Seed}
	res, _, err := p.c.tel.RunSessionRetry(
		attest.WithTraceParent(ctx, sp.Context()), cn.verifier, cn.agent, cn.link, policy)
	switch {
	case err == nil && res.Accepted:
		verdict = "accepted"
		st.Accepted++
		st.LastRTTSeconds = res.Elapsed
	case err == nil:
		verdict, reason = "rejected", res.Reason
		st.Rejected++
	case attest.IsTransport(err):
		verdict, reason = "transport", err.Error()
		st.Transport++
	default:
		verdict, reason = "error", err.Error()
		st.Errors++
	}
	return *st, nil
}

// ProbeAll probes every shard once, in shard order (deterministic probe
// schedules are what make the canary tests exact).
func (p *Prober) ProbeAll(ctx context.Context) []ProbeStatus {
	out := make([]ProbeStatus, 0, len(p.c.order))
	for _, sid := range p.c.order {
		st, err := p.ProbeOnce(ctx, sid)
		if err != nil {
			continue
		}
		out = append(out, st)
	}
	return out
}

// Status returns every shard's canary state, sorted by shard name. Shards
// never probed report Sessions == 0 (no data).
func (p *Prober) Status() []ProbeStatus {
	out := make([]ProbeStatus, 0, len(p.canaries))
	for _, cn := range p.canaries {
		cn.mu.Lock()
		st := cn.status
		st.Alive = p.c.shardAlive(cn.shard)
		st.SeedsRemaining = cn.budget.Remaining()
		cn.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// AlertRules derives the per-shard probe-failure burn rules for this
// prober's cluster (see ProbeAlertRules).
func (p *Prober) AlertRules(budget float64) []telemetry.Rule {
	return ProbeAlertRules(p.c.order, budget)
}
