package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pufatt/internal/crp"
	"pufatt/internal/telemetry"
)

// Typed leadership errors. Both are terminal session errors — they mean
// the control plane refuses to serve, not that a frame was lost — so the
// attestation retry machinery never consumes transport budget on them.
var (
	// ErrStaleReplica reports a promotion (or a forced serve) refused
	// because the candidate's claim log is behind the acknowledged
	// high-water mark: some finished session consumed a seed the candidate
	// has never heard of, and serving from it could hand that seed out
	// again. Fail closed.
	ErrStaleReplica = errors.New("cluster: replica claim log behind acknowledged high-water mark")
	// ErrNoLeader reports a device none of whose live replicas may serve.
	ErrNoLeader = errors.New("cluster: no serviceable leader for device")
)

// Group is one device's replication group: the ordered replica set the
// ring assigned it, one claim log per replica, and the leader that owns
// claims. It implements the attestation layer's SeedBudget, so a Verifier
// whose seed budget is a Group transparently claims every session's x0
// through the replicated log. (It also implements core.ReferenceSource
// over the enrollment's measured references, for direct CRP verification
// of claimed seeds; interactive sessions use the emulator model as their
// reference source, as everywhere else in the stack.)
type Group struct {
	c      *Cluster
	device int

	// active is the cluster.attest root span of the session currently
	// holding the device's binding mutex (nil outside a session). The
	// claim path hangs its repl.ack span under it so replication latency
	// lands in the same trace as routing, queueing, and the session.
	active atomic.Pointer[telemetry.Span]

	bits int // response width, fixed by the device's design across epochs

	mu sync.Mutex
	// enrs holds the enrollments a replica's ledger may still need: the
	// live epoch's, and any a lagging replica will install when it
	// catches up across a cutover.
	enrs     map[uint32]*Enrollment
	replicas []string
	leader   int // index into replicas
	logs     map[string]*deviceLog
	acked    map[string]uint64 // leader's acknowledged high-water mark per replica
	// hwm is the group's acknowledged high-water mark: the highest
	// sequence number that completed the full log-before-acknowledge
	// cycle (leader append + replication to every live follower) and was
	// therefore released to a session. Promotion gates on it.
	hwm uint64
}

// Replicas returns the group's replica set, leader first as placed by the
// ring (the *current* leader may differ after failover; see Leader).
func (g *Group) Replicas() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.replicas...)
}

// Leader resolves the group's current serviceable leader, auto-promoting
// over a dead one when the cluster allows it.
func (g *Group) Leader() (string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leaderLocked()
}

// Applied reports a replica's applied log sequence (0 for a non-replica).
func (g *Group) Applied(shard string) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if l := g.logs[shard]; l != nil {
		return l.applied()
	}
	return 0
}

// HighWaterMark reports the group's acknowledged high-water mark.
func (g *Group) HighWaterMark() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hwm
}

// leaderLocked returns the current leader if it is alive, else fails over
// (when the cluster's AutoFailover is set) to the live replica with the
// longest log — which promoteLocked still gates against the high-water
// mark, so a partitioned rump of stale replicas fails closed rather than
// serving.
func (g *Group) leaderLocked() (string, error) {
	lead := g.replicas[g.leader]
	if g.c.shardAlive(lead) {
		return lead, nil
	}
	if !g.c.cfg.AutoFailover {
		return "", fmt.Errorf("%w %d: leader %s down", ErrNoLeader, g.device, lead)
	}
	best, bestApplied := -1, uint64(0)
	for i, sid := range g.replicas {
		if i == g.leader || !g.c.shardAlive(sid) {
			continue
		}
		if a := g.logs[sid].applied(); best < 0 || a > bestApplied {
			best, bestApplied = i, a
		}
	}
	if best < 0 {
		return "", fmt.Errorf("%w %d: all replicas down", ErrNoLeader, g.device)
	}
	if err := g.promoteLocked(g.replicas[best]); err != nil {
		return "", err
	}
	return g.replicas[g.leader], nil
}

// Promote makes the named replica the group's leader. It refuses — with
// ErrStaleReplica — a candidate whose applied log is behind the
// acknowledged high-water mark: a stale leader could re-issue a seed some
// completed session already used.
func (g *Group) Promote(shard string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.promoteLocked(shard)
}

func (g *Group) promoteLocked(shard string) error {
	idx := -1
	for i, sid := range g.replicas {
		if sid == shard {
			idx = i
			break
		}
	}
	if idx < 0 {
		g.c.met.Promotions.With("not_replica").Inc()
		return fmt.Errorf("cluster: shard %s is not a replica of device %d", shard, g.device)
	}
	if !g.c.shardAlive(shard) {
		g.c.met.Promotions.With("down").Inc()
		return fmt.Errorf("cluster: promoting device %d: shard %s: %w", g.device, shard, ErrShardDown)
	}
	if applied := g.logs[shard].applied(); applied < g.hwm {
		g.c.met.Promotions.With("stale_refused").Inc()
		return fmt.Errorf("%w: device %d shard %s applied %d < hwm %d",
			ErrStaleReplica, g.device, shard, applied, g.hwm)
	}
	if idx != g.leader {
		g.c.met.Promotions.With("promoted").Inc()
	}
	g.leader = idx
	return nil
}

// NextUnusedWithEpoch claims the next unused seed through the replicated
// log: the leader appends the claim frame locally (log before
// acknowledge), streams it to every live follower, advances the
// acknowledged high-water mark, and only then releases the seed.
func (g *Group) NextUnusedWithEpoch() (uint64, uint32, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	lead, err := g.leaderLocked()
	if err != nil {
		return 0, 0, err
	}
	led := g.logs[lead].ledger
	seed, err := led.Next()
	if err != nil {
		return 0, led.Epoch(), fmt.Errorf("cluster: device %d: %w", g.device, err)
	}
	if err := g.claimLocked(lead, seed); err != nil {
		return 0, led.Epoch(), err
	}
	return seed, led.Epoch(), nil
}

// Claim claims one seed directly through the replicated log, the
// crp.Database claim surface. Unknown and already-used seeds fail with the
// crp sentinels before anything is replicated.
func (g *Group) Claim(seed uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	lead, err := g.leaderLocked()
	if err != nil {
		return err
	}
	return g.claimLocked(lead, seed)
}

func (g *Group) claimLocked(lead string, seed uint64) error {
	if err := g.logs[lead].ledger.Check(crp.Frame{Seed: seed}); err != nil {
		return fmt.Errorf("cluster: device %d: %w", g.device, err)
	}
	return g.replicateLocked(lead, crp.ClaimFrame(seed))
}

// replicateLocked runs one frame through the full log-before-acknowledge
// cycle: leader append, synchronous streaming to live followers with
// acknowledged marks, high-water-mark advance. Dead followers are skipped
// — their logs stop advancing, which is exactly what the promotion gate
// measures. A follower that revived behind the leader is caught up first:
// the leader streams every frame it missed, in order, before the new one.
// A live follower refusing a frame is a fatal control-plane error
// (histories diverged); the claim is burned on the leader and never
// released.
func (g *Group) replicateLocked(lead string, frame []byte) error {
	// When a cluster.attest session published its root span, the whole
	// acknowledge cycle records under it as repl.ack with one repl.follower
	// child per live follower streamed to — the trace's answer to "where
	// did replication time go, and to whom".
	var spAck *telemetry.Span
	if root := g.active.Load(); root != nil {
		spAck = root.Child("repl.ack")
		spAck.SetAttr("leader", lead)
		defer spAck.Finish()
	}

	log := g.logs[lead]
	seq := log.applied() + 1
	if err := log.apply(seq, frame); err != nil {
		if spAck != nil {
			spAck.SetAttr("error", err.Error())
		}
		return fmt.Errorf("cluster: leader %s append for device %d: %w", lead, g.device, err)
	}
	g.acked[lead] = seq
	for _, sid := range g.replicas {
		if sid == lead || !g.c.shardAlive(sid) {
			continue
		}
		var spf *telemetry.Span
		if spAck != nil {
			spf = spAck.Child("repl.follower")
			spf.SetAttr("shard", sid)
		}
		follower := g.logs[sid]
		for s := follower.applied() + 1; s <= seq; s++ {
			if err := follower.apply(s, log.frames[s-1]); err != nil {
				if spf != nil {
					spf.SetAttr("error", err.Error())
					spf.Finish()
				}
				return fmt.Errorf("cluster: replicating seq %d for device %d to %s: %w", s, g.device, sid, err)
			}
		}
		g.acked[sid] = seq
		if spf != nil {
			spf.Finish()
		}
	}
	g.hwm = seq
	g.observeLagLocked()
	return nil
}

// observeLagLocked reports the group's worst follower lag (in frames
// behind the high-water mark, live replicas only) to the lag gauge, which
// aggregates the max across groups — a healthy group's zero must not mask
// another group's lag.
func (g *Group) observeLagLocked() {
	var worst uint64
	for _, sid := range g.replicas {
		if !g.c.shardAlive(sid) {
			continue
		}
		if a := g.logs[sid].applied(); g.hwm > a && g.hwm-a > worst {
			worst = g.hwm - a
		}
	}
	g.c.met.observeLag(g.device, worst)
}

// CommitEpoch replicates an epoch transition frame — the cutover commit
// point — and each replica installs the new enrollment as the frame
// applies there (a lagging one when it catches up). From then on the old
// epoch's seeds are unclaimable cluster-wide, and a seed re-enrolled under
// the new epoch is a fresh (seed, epoch) pair. An epoch that does not
// advance the leader's fails with crp.ErrEpochOrder.
func (g *Group) CommitEpoch(enr *Enrollment) error {
	if enr.ChipID() != g.device {
		return fmt.Errorf("cluster: enrollment for device %d offered to device %d", enr.ChipID(), g.device)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	lead, err := g.leaderLocked()
	if err != nil {
		return err
	}
	from := g.logs[lead].ledger.Epoch()
	if err := g.logs[lead].ledger.Admits(enr.Epoch()); err != nil {
		return fmt.Errorf("cluster: device %d: %w", g.device, err)
	}
	g.enrs[enr.Epoch()] = enr
	if err := g.replicateLocked(lead, crp.TransitionFrame(from, enr.Epoch())); err != nil {
		return err
	}
	// Keep only the enrollments some replica may still install.
	oldest := enr.Epoch()
	for _, l := range g.logs {
		oldest = min(oldest, l.ledger.Epoch())
	}
	for e := range g.enrs {
		if e < oldest {
			delete(g.enrs, e)
		}
	}
	return nil
}

// leaderLedgerLocked returns the current leader's ledger, or the placed
// leader's when no replica may serve.
func (g *Group) leaderLedgerLocked() (*crp.Ledger, error) {
	lead, err := g.leaderLocked()
	if err != nil {
		return g.logs[g.replicas[g.leader]].ledger, err
	}
	return g.logs[lead].ledger, nil
}

// Epoch returns the current leader's epoch.
func (g *Group) Epoch() uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	led, _ := g.leaderLedgerLocked()
	return led.Epoch()
}

// Remaining implements attest.SeedBudget: unclaimed seeds under the
// current leader's view, in O(1).
func (g *Group) Remaining() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	led, err := g.leaderLedgerLocked()
	if err != nil {
		return 0
	}
	return led.Remaining()
}

// ResponseBits implements core.ReferenceSource.
func (g *Group) ResponseBits() int { return g.bits }

// ReferenceResponse implements core.ReferenceSource with a caller-owned
// copy. Like crp.Database, a seed must have been claimed before its
// references may be read.
func (g *Group) ReferenceResponse(seed uint64, j int) ([]uint8, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	led, err := g.leaderLedgerLocked()
	if err != nil {
		return nil, err
	}
	return led.Reference(seed, j)
}
