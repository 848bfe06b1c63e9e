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

// DeviceSet is a population of devices a Fleet sweeps: the fleet's own
// enrolled nodes, or a verifier cluster (cluster.Cluster implements it).
type DeviceSet interface {
	// Devices returns the ids of the devices to sweep.
	Devices() []int
	// Attest runs one device's retried session: the result, the number of
	// attempts made, and the terminal error when no session completed.
	Attest(ctx context.Context, id int, policy RetryPolicy) (Result, int, error)
	// DeviceName returns the device name its sessions are journalled under.
	DeviceName(id int) string
}

// Fleet manages attestation for a population of enrolled devices — the
// sensor-network deployment the paper's introduction motivates. A sweep
// attests every device of the fleet's device set over its (possibly lossy)
// link and produces a degradation report that keeps the two failure
// regimes apart:
//
//   - compromised — the verifier completed a session and REJECTED it. A
//     security event. Never retried (see RetryPolicy).
//   - unreachable — every transport attempt failed; the verifier learned
//     nothing about the node's integrity. An availability event.
//
// Nodes that are unreachable sweep after sweep trip a per-node circuit
// breaker: they are quarantined and cost one half-open probe per sweep
// until a probe succeeds or the operator reinstates them, so a dead region
// of the network cannot consume the whole sweep's retry budget forever.
type Fleet struct {
	// Telemetry receives the fleet's metrics (sweep outcomes, quarantine
	// transitions, the open-quarantine gauge). Nil means the package
	// default registry, which the admin endpoint serves; tests install a
	// private Telemetry to assert exact counts.
	Telemetry *Telemetry

	set DeviceSet

	mu     sync.Mutex
	nodes  map[int]node        // the fleet's own nodes; nil when sweeping another set
	health map[int]*nodeHealth // circuit-breaker state by device id
}

// nodeHealth is the per-node circuit-breaker state.
type nodeHealth struct {
	consecutiveUnreachable int
	quarantined            bool
}

const (
	// DefaultSweepConcurrency bounds the number of devices a sweep attests
	// at once: sweeps must finish in bounded time on a large fleet without
	// stampeding the base station, hence a worker pool rather than either
	// extreme.
	DefaultSweepConcurrency = 8
	// DefaultQuarantineThreshold is the number of consecutive unreachable
	// sweeps after which a node is quarantined.
	DefaultQuarantineThreshold = 3
)

// NewFleet returns an empty fleet that sweeps the nodes enrolled with
// Enroll.
func NewFleet() *Fleet {
	f := &Fleet{nodes: make(map[int]node), health: make(map[int]*nodeHealth)}
	f.set = fleetNodes{f}
	return f
}

// NewFleetOver returns a fleet that sweeps an existing device set,
// recording into t (nil means the package default).
func NewFleetOver(set DeviceSet, t *Telemetry) *Fleet {
	return &Fleet{Telemetry: t, set: set, health: make(map[int]*nodeHealth)}
}

// telemetry returns the fleet's metric sink (the package default when the
// Telemetry field is nil).
func (f *Fleet) telemetry() *Telemetry {
	if f.Telemetry != nil {
		return f.Telemetry
	}
	return tel
}

// node is one enrolled node's session endpoint.
type node struct {
	verifier *Verifier
	agent    ProverAgent
	link     Link
}

// fleetNodes is the device set of a fleet's own enrolled nodes. Its
// methods take the fleet's mutex, so the fleet must not call its set while
// holding it.
type fleetNodes struct{ f *Fleet }

func (s fleetNodes) Devices() []int {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	ids := make([]int, 0, len(s.f.nodes))
	for id := range s.f.nodes {
		ids = append(ids, id)
	}
	return ids
}

func (s fleetNodes) Attest(ctx context.Context, id int, policy RetryPolicy) (Result, int, error) {
	s.f.mu.Lock()
	n, ok := s.f.nodes[id]
	s.f.mu.Unlock()
	if !ok {
		return Result{}, 0, fmt.Errorf("attest: node %d not enrolled", id)
	}
	return s.f.telemetry().RunSessionRetry(ctx, n.verifier, n.agent, n.link, policy)
}

func (s fleetNodes) DeviceName(id int) string {
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	if n, ok := s.f.nodes[id]; ok {
		return n.verifier.Device
	}
	return ""
}

// Enroll registers a node's verifier, its prover agent and its link under
// a node id. Wrap the agent in a FaultyLink to model a lossy last hop. A
// verifier with no Device name is given "node-<id>", so fleet sessions
// always carry a device identity into the health registry and the journal.
func (f *Fleet) Enroll(nodeID int, v *Verifier, agent ProverAgent, link Link) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.nodes == nil {
		return fmt.Errorf("attest: fleet sweeps an external device set; enroll node %d there", nodeID)
	}
	if _, dup := f.nodes[nodeID]; dup {
		return fmt.Errorf("attest: node %d already enrolled", nodeID)
	}
	if v.Device == "" {
		v.Device = fmt.Sprintf("node-%d", nodeID)
	}
	f.nodes[nodeID] = node{verifier: v, agent: agent, link: link}
	return nil
}

// Size returns the number of devices the fleet sweeps.
func (f *Fleet) Size() int { return len(f.set.Devices()) }

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
	name := f.set.DeviceName(nodeID)
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
		T.Health.ObserveQuarantine(name, false)
		T.journal(telemetry.EventQuarantine, 0, 0, name, "lifted: operator reinstate")
	}
	h.quarantined = false
	h.consecutiveUnreachable = 0
}

// NodeResult is one node's sweep outcome.
type NodeResult struct {
	NodeID int
	Result Result
	// Err is the terminal error when no session completed (transport
	// budget exhausted, failed quarantine probe, sweep cancellation, a
	// verifier-tier refusal, or an agent-internal failure).
	Err error
	// Attempts is the number of sessions tried (0 for a failed probe).
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
// Unreachable ∪ Quarantined covers every swept node exactly once).
// Quarantined nodes are classified by their half-open probe: a completed
// probe lands in Healthy or Compromised, a failed one in Quarantined.
// Nodes abandoned by a cancelled sweep count as Unreachable.
type SweepReport struct {
	Results []NodeResult // ascending node id
	// Healthy nodes attested and were accepted.
	Healthy []int
	// Compromised nodes completed a session and were rejected.
	Compromised []int
	// Exhausted nodes could not open a session because their seed budget
	// is spent: awaiting re-enrollment, not compromised, not unreachable.
	Exhausted []int
	// Unreachable nodes completed no session: their transport budget ran
	// out, the sweep was cancelled, or the verifier tier refused them.
	Unreachable []int
	// Quarantined nodes sit behind an open circuit breaker and failed
	// this sweep's half-open probe.
	Quarantined []int
	// Stats carries the sweep's aggregate telemetry.
	Stats SweepStats
}

// String summarises the report.
func (r SweepReport) String() string {
	return fmt.Sprintf("sweep: %d nodes, %d healthy, %d compromised, %d exhausted, %d unreachable, %d quarantined",
		len(r.Results), len(r.Healthy), len(r.Compromised), len(r.Exhausted), len(r.Unreachable), len(r.Quarantined))
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

// Sweep attests every device of the fleet's set, DefaultSweepConcurrency
// at a time, each with the policy's transport-fault budget (quarantined
// nodes get one half-open probe instead), updates the circuit breakers, and
// classifies the outcome. Cancelling ctx stops the sweep mid-flight: nodes
// not yet attested are reported with ErrCancelled (classified unreachable,
// counted in Stats.Cancelled) and their circuit breakers are left alone —
// cancellation says nothing about a node's reachability.
func (f *Fleet) Sweep(ctx context.Context, policy RetryPolicy) SweepReport {
	T := f.telemetry()
	start := T.Tracer.Now()

	ids := f.set.Devices()
	sort.Ints(ids)
	width := min(DefaultSweepConcurrency, len(ids))

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
				outcomes[i] = f.attestNode(ctx, ids[i], policy)
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
// circuit-breaker bookkeeping. Only transport faults advance the breaker:
// a refusal by the verifier tier (overload, no serviceable leader) says
// nothing about the device.
func (f *Fleet) attestNode(ctx context.Context, id int, policy RetryPolicy) nodeOutcome {
	f.mu.Lock()
	h := f.health[id]
	if h == nil {
		h = &nodeHealth{}
		f.health[id] = h
	}
	quarantined := h.quarantined
	f.mu.Unlock()

	T := f.telemetry()
	if quarantined {
		policy = RetryPolicy{MaxAttempts: 1} // half-open: one probe, no retries
	}
	res, attempts, err := f.set.Attest(ctx, id, policy)
	out := nodeOutcome{
		res:      NodeResult{NodeID: id, Result: res, Err: err, Attempts: attempts},
		attempts: attempts,
		probe:    quarantined,
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
	if err != nil && !IsTransport(err) {
		return out
	}

	name := f.set.DeviceName(id)
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
			T.Health.ObserveQuarantine(name, false)
			T.journal(telemetry.EventQuarantine, 0, 0, name, "lifted: probe succeeded")
		}
	case !quarantined:
		h.consecutiveUnreachable++
		if h.consecutiveUnreachable >= DefaultQuarantineThreshold && !h.quarantined {
			h.quarantined = true
			out.entered = true
			T.QuarantineTransitions.With(transitionEnter).Inc()
			T.QuarantineOpen.Add(1)
			T.Health.ObserveQuarantine(name, true)
			T.journal(telemetry.EventQuarantine, 0, 0, name,
				fmt.Sprintf("entered: %d consecutive unreachable sweeps", h.consecutiveUnreachable))
		}
	}
	return out
}
