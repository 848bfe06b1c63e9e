package attest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pufatt/internal/telemetry"
)

// Fleet manages attestation for a population of enrolled devices — the
// sensor-network deployment the paper's introduction motivates. Each node
// is enrolled with its own verifier (emulation model or CRP database); a
// sweep attests every node over its (possibly lossy) link and produces a
// degradation report that keeps the two failure regimes apart:
//
//   - compromised — the verifier completed a session and REJECTED it. A
//     security event. Never retried (see RetryPolicy).
//   - unreachable — every transport attempt failed; the verifier learned
//     nothing about the node's integrity. An availability event.
//
// Nodes that are unreachable sweep after sweep trip a per-node circuit
// breaker: they are quarantined and skipped (reported, not attested) until
// a probe succeeds or the operator reinstates them, so a dead region of the
// network cannot consume the whole sweep's retry budget forever.
type Fleet struct {
	// QuarantineThreshold is the number of consecutive unreachable sweeps
	// after which a node is quarantined (0 disables quarantine).
	QuarantineThreshold int

	// Telemetry receives the fleet's metrics (sweep outcomes, quarantine
	// transitions, the open-quarantine gauge). Nil means the package
	// default registry, which the admin endpoint serves; tests install a
	// private Telemetry to assert exact counts.
	Telemetry *Telemetry

	mu        sync.Mutex
	verifiers map[int]*Verifier
	agents    map[int]ProverAgent
	health    map[int]*nodeHealth
}

// nodeHealth is the per-node circuit-breaker state.
type nodeHealth struct {
	consecutiveUnreachable int
	quarantined            bool
}

// DefaultQuarantineThreshold is the consecutive-unreachable-sweep count at
// which a fresh fleet quarantines a node.
const DefaultQuarantineThreshold = 3

// NewFleet returns an empty fleet with the default quarantine threshold.
func NewFleet() *Fleet {
	return &Fleet{
		QuarantineThreshold: DefaultQuarantineThreshold,
		verifiers:           make(map[int]*Verifier),
		agents:              make(map[int]ProverAgent),
		health:              make(map[int]*nodeHealth),
	}
}

// telemetry returns the fleet's metric sink (the package default when the
// Telemetry field is nil).
func (f *Fleet) telemetry() *Telemetry {
	if f.Telemetry != nil {
		return f.Telemetry
	}
	return tel
}

// Enroll registers a node's verifier and its prover agent under a node id.
// Wrap the agent in a FaultyLink to model a lossy last hop. A verifier with
// no Device name is given "node-<id>", so fleet sessions always carry a
// device identity into the health registry and the journal.
func (f *Fleet) Enroll(nodeID int, v *Verifier, agent ProverAgent) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.verifiers[nodeID]; dup {
		return fmt.Errorf("attest: node %d already enrolled", nodeID)
	}
	if v.Device == "" {
		v.Device = fmt.Sprintf("node-%d", nodeID)
	}
	f.verifiers[nodeID] = v
	f.agents[nodeID] = agent
	f.health[nodeID] = &nodeHealth{}
	return nil
}

// Size returns the number of enrolled nodes.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.verifiers)
}

// Quarantined returns the currently quarantined node ids, ascending.
func (f *Fleet) Quarantined() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ids []int
	for id, h := range f.health {
		if h.quarantined {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// Reinstate clears a node's quarantine and failure history (an operator
// decision: the node was serviced, attest it normally again).
func (f *Fleet) Reinstate(nodeID int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.health[nodeID]
	if !ok {
		return
	}
	if h.quarantined {
		T := f.telemetry()
		T.QuarantineTransitions.With(transitionReinstate).Inc()
		T.QuarantineOpen.Add(-1)
		if v := f.verifiers[nodeID]; v != nil {
			T.Health.ObserveQuarantine(v.Device, false)
			T.journal(telemetry.EventQuarantine, 0, 0, v.Device, "lifted: operator reinstate")
		}
	}
	h.quarantined = false
	h.consecutiveUnreachable = 0
}

// NodeResult is one node's sweep outcome.
type NodeResult struct {
	NodeID int
	Result Result
	// Err is the terminal error when no session completed (transport
	// budget exhausted, quarantine skip, sweep cancellation, or an
	// agent-internal failure).
	Err error
	// Attempts is the number of sessions tried (0 for a quarantine skip).
	Attempts int
}

// Healthy reports whether the node attested successfully.
func (r NodeResult) Healthy() bool { return r.Err == nil && r.Result.Accepted }

// Compromised reports a completed-and-rejected session: the verifier's
// verdict that the node failed attestation.
func (r NodeResult) Compromised() bool { return r.Err == nil && !r.Result.Accepted }

// Exhausted reports a seed-budget exhaustion: the node's enrolled
// authentication lifetime is spent (or its epoch was retired) and it
// awaits re-enrollment. A lifecycle state — neither a security verdict
// nor a transport fault — so it gets its own regime.
func (r NodeResult) Exhausted() bool { return r.Err != nil && IsExhausted(r.Err) }

// Unreachable reports that no session completed for transport-shaped
// reasons: the transport budget was exhausted (or the node sat in
// quarantine), so the verifier learned nothing about the node's integrity
// this sweep. Budget exhaustion is NOT unreachable — see Exhausted.
func (r NodeResult) Unreachable() bool { return r.Err != nil && !IsExhausted(r.Err) }

// SweepOptions tunes a fleet sweep.
type SweepOptions struct {
	// Concurrency bounds the number of nodes attested at once (<=0 means
	// DefaultSweepConcurrency). Sweeps must finish in bounded time on a
	// million-node fleet without stampeding the base station, hence a
	// worker pool rather than either extreme.
	Concurrency int
	// Retry is each node's transport-fault budget. The zero value means a
	// single attempt, no backoff.
	Retry RetryPolicy
	// ProbeQuarantined sends quarantined nodes one half-open probe (a
	// single attempt, no retries). A node whose probe succeeds leaves
	// quarantine with its verdict recorded; a failed probe keeps it
	// quarantined. When false, quarantined nodes are skipped outright.
	ProbeQuarantined bool
}

// DefaultSweepConcurrency bounds a sweep that did not choose its own width.
const DefaultSweepConcurrency = 8

// DefaultSweepOptions returns the sweep configuration used by Sweep: a
// bounded worker pool, three attempts per node with no backoff sleeping
// (the fleet path runs on the simulated clock), and half-open probing.
func DefaultSweepOptions() SweepOptions {
	return SweepOptions{
		Concurrency:      DefaultSweepConcurrency,
		Retry:            RetryPolicy{MaxAttempts: 3},
		ProbeQuarantined: true,
	}
}

// SweepStats aggregates one sweep's telemetry: the same numbers the metric
// counters accumulate process-wide, scoped to a single sweep so operators
// (and tests) can reason about one pass in isolation.
type SweepStats struct {
	// Attempts is the total number of attestation attempts across all
	// nodes, including retries and half-open probes.
	Attempts int
	// Retries is the number of attempts beyond each node's first.
	Retries int
	// Probes is the number of half-open probes sent to quarantined nodes.
	Probes int
	// QuarantineEntered / QuarantineLifted count circuit-breaker
	// transitions that happened during this sweep (Lifted counts probe
	// successes only; operator Reinstate calls are outside any sweep).
	QuarantineEntered int
	QuarantineLifted  int
	// Cancelled is the number of nodes abandoned because the sweep
	// context ended before their session completed.
	Cancelled int
	// Sessions is the number of completed sessions (accepted or
	// rejected); RTTMin/RTTMean/RTTMax summarise their verifier-observed
	// round-trip times in seconds. All zero when no session completed.
	Sessions int
	RTTMin   float64
	RTTMean  float64
	RTTMax   float64
	// Elapsed is the sweep's wall time on the telemetry tracer's clock
	// (injectable, so tests assert on it without sleeping).
	Elapsed time.Duration
}

// SweepReport is the outcome of one fleet sweep, with node ids classified
// by regime (each list ascending; Healthy ∪ Compromised ∪ Exhausted ∪
// Unreachable ∪ Quarantined covers every enrolled node exactly once —
// quarantined nodes that were probed are classified by their probe
// outcome instead, and nodes abandoned by a cancelled sweep count as
// Unreachable).
type SweepReport struct {
	Results []NodeResult // ascending node id
	// Healthy nodes attested and were accepted.
	Healthy []int
	// Compromised nodes completed a session and were rejected.
	Compromised []int
	// Exhausted nodes could not open a session because their seed budget
	// is spent: awaiting re-enrollment, not compromised, not unreachable.
	Exhausted []int
	// Unreachable nodes exhausted their transport budget.
	Unreachable []int
	// Quarantined nodes were skipped (circuit breaker open, not probed or
	// probe failed).
	Quarantined []int
	// Stats carries the sweep's aggregate telemetry.
	Stats SweepStats
}

// String summarises the report.
func (r SweepReport) String() string {
	return fmt.Sprintf("sweep: %d nodes, %d healthy, %d compromised, %d exhausted, %d unreachable, %d quarantined",
		len(r.Results), len(r.Healthy), len(r.Compromised), len(r.Exhausted), len(r.Unreachable), len(r.Quarantined))
}

// Sweep attests every enrolled node with the default sweep options. It is
// a thin wrapper over SweepWithOptions with a background context.
func (f *Fleet) Sweep(link Link) SweepReport {
	return f.SweepWithOptions(context.Background(), link, DefaultSweepOptions())
}

// nodeOutcome carries one node's result plus the bookkeeping the sweep
// aggregates into SweepStats (raw attempt counts survive here even when
// the reported NodeResult zeroes them, as a failed probe does).
type nodeOutcome struct {
	res       NodeResult
	attempts  int
	probe     bool
	entered   bool
	lifted    bool
	cancelled bool
}

// SweepWithOptions attests every enrolled node over the link with bounded
// concurrency and per-node retry budgets, updates the quarantine state, and
// classifies the outcome. Cancelling ctx stops the sweep mid-flight: nodes
// not yet attested are reported with ErrCancelled (classified unreachable,
// counted in Stats.Cancelled) and their circuit breakers are left alone —
// cancellation says nothing about a node's reachability.
func (f *Fleet) SweepWithOptions(ctx context.Context, link Link, opts SweepOptions) SweepReport {
	if ctx == nil {
		ctx = context.Background()
	}
	T := f.telemetry()
	start := T.Tracer.Now()

	f.mu.Lock()
	ids := make([]int, 0, len(f.verifiers))
	for id := range f.verifiers {
		ids = append(ids, id)
	}
	f.mu.Unlock()
	sort.Ints(ids)

	width := opts.Concurrency
	if width <= 0 {
		width = DefaultSweepConcurrency
	}
	if width > len(ids) {
		width = len(ids)
	}

	outcomes := make([]nodeOutcome, len(ids))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if cerr := ctx.Err(); cerr != nil {
					outcomes[i] = nodeOutcome{
						res:       NodeResult{NodeID: ids[i], Err: fmt.Errorf("%w: %v", ErrCancelled, cerr)},
						cancelled: true,
					}
					continue
				}
				outcomes[i] = f.attestNode(ctx, ids[i], link, opts)
			}
		}()
	}
	for i := range ids {
		work <- i
	}
	close(work)
	wg.Wait()

	report := SweepReport{Results: make([]NodeResult, len(ids))}
	stats := &report.Stats
	var rttSum float64
	for i, o := range outcomes {
		r := o.res
		report.Results[i] = r
		stats.Attempts += o.attempts
		if o.attempts > 1 {
			stats.Retries += o.attempts - 1
		}
		if o.probe {
			stats.Probes++
		}
		if o.entered {
			stats.QuarantineEntered++
		}
		if o.lifted {
			stats.QuarantineLifted++
		}
		if o.cancelled {
			stats.Cancelled++
		}
		if r.Err == nil {
			stats.Sessions++
			rtt := r.Result.Elapsed
			rttSum += rtt
			if stats.Sessions == 1 || rtt < stats.RTTMin {
				stats.RTTMin = rtt
			}
			if rtt > stats.RTTMax {
				stats.RTTMax = rtt
			}
		}
		switch {
		case r.Healthy():
			report.Healthy = append(report.Healthy, r.NodeID)
			T.SweepNodes.With(outcomeHealthy).Inc()
		case r.Compromised():
			report.Compromised = append(report.Compromised, r.NodeID)
			T.SweepNodes.With(outcomeCompromised).Inc()
		case errors.Is(r.Err, ErrQuarantined):
			report.Quarantined = append(report.Quarantined, r.NodeID)
			T.SweepNodes.With(outcomeQuarantined).Inc()
		case r.Exhausted():
			report.Exhausted = append(report.Exhausted, r.NodeID)
			T.SweepNodes.With(outcomeExhausted).Inc()
		default:
			report.Unreachable = append(report.Unreachable, r.NodeID)
			T.SweepNodes.With(outcomeUnreachable).Inc()
		}
	}
	if stats.Sessions > 0 {
		stats.RTTMean = rttSum / float64(stats.Sessions)
	}
	stats.Elapsed = T.Tracer.Now().Sub(start)
	T.Sweeps.Inc()
	T.SweepDuration.Observe(stats.Elapsed.Seconds())
	return report
}

// attestNode runs one node's sweep step: quarantine gate, retried session,
// circuit-breaker bookkeeping.
func (f *Fleet) attestNode(ctx context.Context, id int, link Link, opts SweepOptions) nodeOutcome {
	f.mu.Lock()
	v := f.verifiers[id]
	agent := f.agents[id]
	h := f.health[id]
	quarantined := h.quarantined
	f.mu.Unlock()

	T := f.telemetry()
	policy := opts.Retry
	probe := false
	if quarantined {
		if !opts.ProbeQuarantined {
			return nodeOutcome{res: NodeResult{NodeID: id, Err: fmt.Errorf("%w (skipped)", ErrQuarantined)}}
		}
		probe = true
		policy = RetryPolicy{MaxAttempts: 1} // half-open: one probe, no retries
	}

	res, attempts, err := T.RunSessionRetry(ctx, v, agent, link, policy)
	out := nodeOutcome{
		res:      NodeResult{NodeID: id, Result: res, Err: err, Attempts: attempts},
		attempts: attempts,
		probe:    probe,
	}
	if errors.Is(err, ErrCancelled) {
		// The sweep was cancelled mid-node. No breaker update: the node
		// was never given a fair chance to answer.
		out.cancelled = true
		return out
	}
	if quarantined && err != nil {
		// Probe failed: stay quarantined, and report the cause.
		out.res.Err = fmt.Errorf("%w: probe failed: %v", ErrQuarantined, err)
		out.res.Attempts = 0
		T.QuarantineTransitions.With(transitionProbeFailed).Inc()
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case err == nil:
		// A completed session — whatever the verdict — proves the node
		// reachable: reset the breaker.
		h.consecutiveUnreachable = 0
		if h.quarantined {
			h.quarantined = false
			out.lifted = true
			T.QuarantineTransitions.With(transitionExit).Inc()
			T.QuarantineOpen.Add(-1)
			T.Health.ObserveQuarantine(v.Device, false)
			T.journal(telemetry.EventQuarantine, 0, 0, v.Device, "lifted: probe succeeded")
		}
	case IsTransport(err) && !quarantined:
		h.consecutiveUnreachable++
		if f.QuarantineThreshold > 0 && h.consecutiveUnreachable >= f.QuarantineThreshold && !h.quarantined {
			h.quarantined = true
			out.entered = true
			T.QuarantineTransitions.With(transitionEnter).Inc()
			T.QuarantineOpen.Add(1)
			T.Health.ObserveQuarantine(v.Device, true)
			T.journal(telemetry.EventQuarantine, 0, 0, v.Device,
				fmt.Sprintf("entered: %d consecutive unreachable sweeps", h.consecutiveUnreachable))
		}
	}
	return out
}

// Compromised returns the node ids whose sweep completed and was rejected
// by the verifier — the security failures. Transport failures are NOT
// included; see Unreachable.
func Compromised(results []NodeResult) []int {
	var bad []int
	for _, r := range results {
		if r.Compromised() {
			bad = append(bad, r.NodeID)
		}
	}
	return bad
}

// Unreachable returns the node ids whose sweep never completed a session —
// the availability failures, about which the verifier has no integrity
// verdict either way.
func Unreachable(results []NodeResult) []int {
	var out []int
	for _, r := range results {
		if r.Unreachable() {
			out = append(out, r.NodeID)
		}
	}
	return out
}
