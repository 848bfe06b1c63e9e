package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pufatt/internal/attest"
	"pufatt/internal/core"
	"pufatt/internal/crp"
	"pufatt/internal/ecc"
	"pufatt/internal/obfuscate"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
)

// fakeEnrollment builds enrollment material without measuring a device:
// group/replication semantics don't need real references. Reference j of
// seed s is the word s<<8 | j.
func fakeEnrollment(device int, epoch uint32, seeds ...uint64) *Enrollment {
	var refs []uint8
	for _, s := range seeds {
		for j := 0; j < obfuscate.ResponsesPerOutput; j++ {
			refs = append(refs, ecc.WordToBits(s<<8|uint64(j), 32)...)
		}
	}
	e, err := crp.NewEnrollment(device, 32, epoch, seeds, refs)
	if err != nil {
		panic(err)
	}
	return e
}

func threeShards(t *testing.T, autoFailover bool) *Cluster {
	t.Helper()
	c, err := New(Config{
		Shards:       []string{"shard-0", "shard-1", "shard-2"},
		Replicas:     3,
		AutoFailover: autoFailover,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGroupReplicatesClaims(t *testing.T) {
	c := threeShards(t, false)
	g, err := c.Enroll(fakeEnrollment(7, 1, 11, 22, 33))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Remaining(); got != 3 {
		t.Fatalf("Remaining = %d, want 3", got)
	}
	for i, want := range []uint64{11, 22} {
		seed, epoch, err := g.NextUnusedWithEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if seed != want || epoch != 1 {
			t.Fatalf("claim %d: (%d, %d), want (%d, 1)", i, seed, epoch, want)
		}
	}
	// Log before acknowledge, synchronously: every live replica holds both
	// claims and the high-water mark has advanced with them.
	for _, sid := range g.Replicas() {
		if got := g.Applied(sid); got != 2 {
			t.Fatalf("replica %s applied %d, want 2", sid, got)
		}
	}
	if got := g.HighWaterMark(); got != 2 {
		t.Fatalf("hwm = %d, want 2", got)
	}
	if got := g.Remaining(); got != 1 {
		t.Fatalf("Remaining = %d, want 1", got)
	}
	if audit := c.AuditClaims(); !audit.Clean() || audit.Frames != 2 {
		t.Fatalf("audit = %+v, want clean with 2 frames", audit)
	}
}

func TestGroupExhaustion(t *testing.T) {
	c := threeShards(t, false)
	g, err := c.Enroll(fakeEnrollment(3, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.NextUnused(); err != nil {
		t.Fatal(err)
	}
	_, err = g.NextUnused()
	if !errors.Is(err, crp.ErrExhausted) {
		t.Fatalf("exhausted budget: %v, want crp.ErrExhausted", err)
	}
	if !attest.IsExhausted(err) {
		t.Fatal("attest.IsExhausted must recognise a drained group")
	}
}

// The fail-closed core: a follower that missed claims while dead must not
// win leadership after reviving, because the missing claims were released
// to real sessions.
func TestPromotionRefusesStaleReplica(t *testing.T) {
	c := threeShards(t, false)
	g, err := c.Enroll(fakeEnrollment(1, 1, 10, 20, 30, 40, 50))
	if err != nil {
		t.Fatal(err)
	}
	reps := g.Replicas()
	leader, followA, followB := reps[0], reps[1], reps[2]
	promotions := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, result := range []string{"promoted", "stale_refused", "down", "not_replica"} {
			out[result] = c.Metrics().Promotions.With(result).Value()
		}
		return out
	}
	before := promotions()

	if _, err := g.NextUnused(); err != nil {
		t.Fatal(err)
	}
	// followB dies and misses two acknowledged claims.
	if err := c.Kill(followB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := g.NextUnused(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := g.Applied(followB), uint64(1); got != want {
		t.Fatalf("dead follower applied %d, want %d", got, want)
	}
	if got := g.HighWaterMark(); got != 3 {
		t.Fatalf("hwm = %d, want 3", got)
	}

	// It revives exactly as stale as its downtime left it; the leader dies.
	if err := c.Revive(followB); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(leader); err != nil {
		t.Fatal(err)
	}
	if err := g.Promote(followB); !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("stale promotion: %v, want ErrStaleReplica", err)
	}
	if attest.IsTransport(g.Promote(followB)) {
		t.Fatal("ErrStaleReplica must not be classified as transport")
	}
	// Without auto-failover a dead leader is an operator problem.
	if _, err := g.NextUnused(); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("claims with dead leader: %v, want ErrNoLeader", err)
	}
	// The caught-up follower may serve, and continues the seed order.
	if err := g.Promote(followA); err != nil {
		t.Fatal(err)
	}
	seed, err := g.NextUnused()
	if err != nil {
		t.Fatal(err)
	}
	if seed != 40 {
		t.Fatalf("post-promotion claim = %d, want 40 (no seed re-issued)", seed)
	}
	// Misc refusals: dead candidate, non-replica.
	if err := g.Promote(leader); !errors.Is(err, ErrShardDown) {
		t.Fatalf("promoting dead shard: %v, want ErrShardDown", err)
	}
	if err := g.Promote("ghost"); err == nil || !strings.Contains(err.Error(), "not a replica") {
		t.Fatalf("promoting non-replica: %v", err)
	}
	after := promotions()
	for result, want := range map[string]uint64{"promoted": 1, "stale_refused": 2, "down": 1, "not_replica": 1} {
		if got := after[result] - before[result]; got != want {
			t.Fatalf("cluster_promotions_total{result=%s} delta = %d, want %d", result, got, want)
		}
	}
	if audit := c.AuditClaims(); !audit.Clean() {
		t.Fatalf("audit violations: %v", audit.Violations)
	}
}

func TestAutoFailoverPicksCaughtUpReplica(t *testing.T) {
	c := threeShards(t, true)
	newClusterTelemetry(t, c, 2) // a private lag gauge
	g, err := c.Enroll(fakeEnrollment(2, 1, 10, 20, 30, 40))
	if err != nil {
		t.Fatal(err)
	}
	reps := g.Replicas()
	leader, followA, followB := reps[0], reps[1], reps[2]

	if err := c.Kill(followB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := g.NextUnused(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Revive(followB); err != nil {
		t.Fatal(err)
	}
	// The revived follower is live and two frames behind until the next
	// claim cycle; dead again, it stops counting.
	lag := c.Metrics().ReplLag
	if v := lag.Value(); v != 2 {
		t.Fatalf("cluster_repl_lag_frames = %v after a stale revive, want 2", v)
	}
	if err := c.Kill(followB); err != nil {
		t.Fatal(err)
	}
	if v := lag.Value(); v != 0 {
		t.Fatalf("cluster_repl_lag_frames = %v with the stale follower dead, want 0", v)
	}
	if err := c.Revive(followB); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(leader); err != nil {
		t.Fatal(err)
	}
	// Auto-failover must pick the caught-up follower, never the stale one.
	seed, err := g.NextUnused()
	if err != nil {
		t.Fatal(err)
	}
	if seed != 30 {
		t.Fatalf("failover claim = %d, want 30", seed)
	}
	if lead, err := g.Leader(); err != nil || lead != followA {
		t.Fatalf("leader = %s (%v), want %s", lead, err, followA)
	}
	// All replicas down: nothing may serve.
	if err := c.Kill(followA); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(followB); err != nil {
		t.Fatal(err)
	}
	if _, err := g.NextUnused(); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("all-dead claim: %v, want ErrNoLeader", err)
	}
}

func TestGroupCommitEpoch(t *testing.T) {
	c := threeShards(t, false)
	g, err := c.Enroll(fakeEnrollment(4, 1, 10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.NextUnused(); err != nil {
		t.Fatal(err)
	}
	if err := g.CommitEpoch(fakeEnrollment(9, 2, 100)); err == nil {
		t.Fatal("cross-device enrollment accepted")
	}
	if err := g.CommitEpoch(fakeEnrollment(4, 1, 100)); err == nil {
		t.Fatal("same-epoch re-enrollment accepted")
	}
	if err := g.CommitEpoch(fakeEnrollment(4, 2, 100, 200)); err != nil {
		t.Fatal(err)
	}
	if got := g.Epoch(); got != 2 {
		t.Fatalf("epoch = %d after commit, want 2", got)
	}
	seed, epoch, err := g.NextUnusedWithEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if seed != 100 || epoch != 2 {
		t.Fatalf("post-cutover claim = (%d, %d), want (100, 2)", seed, epoch)
	}
	// The transition frame replicated like any claim: every replica saw it.
	for _, sid := range g.Replicas() {
		if got := g.Applied(sid); got != 3 { // claim + transition + claim
			t.Fatalf("replica %s applied %d, want 3", sid, got)
		}
	}
	if audit := c.AuditClaims(); !audit.Clean() {
		t.Fatalf("audit violations: %v", audit.Violations)
	}
}

func TestReferenceResponseRequiresClaim(t *testing.T) {
	c := threeShards(t, false)
	g, err := c.Enroll(fakeEnrollment(5, 1, 77))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ReferenceResponse(77, 0); err == nil {
		t.Fatal("unclaimed seed's references served")
	}
	if _, err := g.ReferenceResponse(999, 0); !errors.Is(err, crp.ErrUnknownSeed) {
		t.Fatalf("unknown seed: %v, want crp.ErrUnknownSeed", err)
	}
	if _, err := g.NextUnused(); err != nil {
		t.Fatal(err)
	}
	ref, err := g.ReferenceResponse(77, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 32 || ecc.BitsToWord(ref) != 77<<8|1 {
		t.Fatalf("reference = %v", ref)
	}
	if _, err := g.ReferenceResponse(77, obfuscate.ResponsesPerOutput); err == nil {
		t.Fatal("out-of-range reference index served")
	}
}

// --- real-device fleet tests -------------------------------------------

var (
	fleetOnce   sync.Once
	fleetDesign *core.Design
	fleetImage  *swatt.Image
)

func fleetFixtures(t *testing.T) (*core.Design, *swatt.Image) {
	t.Helper()
	fleetOnce.Do(func() {
		fleetDesign = core.MustNewDesign(core.DefaultConfig())
		img, err := swatt.BuildImage(loadParams(), make([]uint32, 64))
		if err != nil {
			t.Fatal(err)
		}
		fleetImage = img
	})
	return fleetDesign, fleetImage
}

// bindTestDevice simulates a device, enrolls it, and binds a full
// verifier/prover session endpoint, mirroring a production bring-up.
func bindTestDevice(t *testing.T, c *Cluster, id, numSeeds int) *Group {
	t.Helper()
	return bindTestDeviceVia(t, c, id, numSeeds, nil)
}

// bindTestDeviceVia is bindTestDevice with the prover reached through
// wrap(prover) when wrap is non-nil (a FaultyLink, say).
func bindTestDeviceVia(t *testing.T, c *Cluster, id, numSeeds int, wrap func(attest.ProverAgent) attest.ProverAgent) *Group {
	t.Helper()
	design, image := fleetFixtures(t)
	dev, err := core.NewDevice(design, rng.New(uint64(id)+1), id)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, numSeeds)
	for k := range seeds {
		seeds[k] = uint64(id)<<20 | uint64(k+1)
	}
	enr, err := NewEnrollment(dev, seeds)
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Enroll(enr)
	if err != nil {
		t.Fatal(err)
	}
	link := attest.DefaultLink()
	// Emulator as reference source, Group as the replicated claim budget —
	// the same split the in-process budgets use.
	prover, v, err := attest.NewPair(dev, image)
	if err != nil {
		t.Fatal(err)
	}
	v.WithSeedBudget(g)
	v.Nonces = rng.New(uint64(id)*3 + 7).Uint32
	v.AllowNetwork(link)
	var agent attest.ProverAgent = prover
	if wrap != nil {
		agent = wrap(prover)
	}
	if err := c.Bind(id, v, agent, link); err != nil {
		t.Fatal(err)
	}
	return g
}

// The acceptance scenario: a 3-shard cluster with one shard killed
// mid-sweep serves every device on both sweeps, and the merged claim-log
// audit proves zero duplicate seed claims across the failover.
func TestClusterLeaderKillMidSweep(t *testing.T) {
	c := threeShards(t, true)
	const devices = 24
	for id := 0; id < devices; id++ {
		bindTestDevice(t, c, id, 8)
	}
	policy := attest.RetryPolicy{MaxAttempts: 3, JitterSeed: 1}
	fleet := attest.NewFleetOver(c, c.Telemetry())

	var report attest.SweepReport
	done := make(chan struct{})
	go func() {
		defer close(done)
		report = fleet.Sweep(context.Background(), policy)
	}()
	time.Sleep(2 * time.Millisecond)
	if err := c.Kill("shard-0"); err != nil {
		t.Fatal(err)
	}
	<-done

	for _, r := range report.Results {
		if !r.Healthy() {
			t.Fatalf("device %d sweep 1: err=%v reason=%s", r.NodeID, r.Err, r.Result.Reason)
		}
	}
	if len(report.Healthy) != devices {
		t.Fatalf("sweep 1: %s", report)
	}
	// Second sweep with the shard still dead: every device it led is now
	// served by a promoted, caught-up replica, routed there by failover.
	owned := 0
	for id := 0; id < devices; id++ {
		if c.ring.Route(DeviceKey(id)) == "shard-0" {
			owned++
		}
	}
	failovers := c.Metrics().FailoverRoutes.Value()
	report = fleet.Sweep(context.Background(), policy)
	if got := c.Metrics().FailoverRoutes.Value() - failovers; owned == 0 || got != uint64(owned) {
		t.Fatalf("cluster_failover_routes_total delta = %d, want one per shard-0 device (%d)", got, owned)
	}
	for _, r := range report.Results {
		if !r.Healthy() {
			t.Fatalf("device %d sweep 2: err=%v accepted=%v", r.NodeID, r.Err, r.Result.Accepted)
		}
	}
	if len(report.Healthy) != devices {
		t.Fatalf("sweep 2: %s", report)
	}
	audit := c.AuditClaims()
	if !audit.Clean() {
		t.Fatalf("audit violations: %v", audit.Violations)
	}
	if audit.Devices != devices {
		t.Fatalf("audit covered %d devices, want %d", audit.Devices, devices)
	}
	// Exactly once per session: two accepted sessions per device, so the
	// longest live log holds exactly two claim frames each.
	if want := 2 * devices; audit.Frames != want {
		t.Fatalf("audit frames = %d, want %d (one claim per accepted session)", audit.Frames, want)
	}
	if len(audit.DeadShards) != 1 || audit.DeadShards[0] != "shard-0" {
		t.Fatalf("dead shards = %v", audit.DeadShards)
	}
}

// Several clients attesting the same device at once serialise on its
// binding (verifier session state is single-writer, and the group's
// active span is per device): every outcome is a classified verdict or
// failure, and the merged audit holds exactly one frame per seed claimed.
func TestClusterConcurrentClientsShareDevice(t *testing.T) {
	c, err := New(Config{
		Shards:       []string{"shard-0", "shard-1", "shard-2"},
		Replicas:     3,
		MaxInFlight:  8,
		MaxQueue:     64,
		AutoFailover: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const devices, clients, attempts = 6, 24, 3
	// Enough seeds that every client of a device can burn its full retry
	// budget without exhausting the group.
	const seeds = clients/devices*attempts + 4
	groups := make([]*Group, devices)
	for id := range groups {
		groups[id] = bindTestDevice(t, c, id, seeds)
	}
	policy := attest.RetryPolicy{MaxAttempts: attempts, JitterSeed: 1}

	outcomes := make([]error, clients)
	accepted := make([]bool, clients)
	var wg sync.WaitGroup
	for p := 0; p < clients; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			res, _, err := c.Attest(context.Background(), p%devices, policy)
			outcomes[p], accepted[p] = err, err == nil && res.Accepted
		}(p)
	}
	wg.Wait()

	nAccepted := 0
	for p, err := range outcomes {
		switch {
		case err == nil:
			if accepted[p] {
				nAccepted++
			}
		case IsOverload(err), attest.IsExhausted(err), attest.IsTransport(err):
		default:
			t.Fatalf("client %d: unclassified error %v", p, err)
		}
	}
	if nAccepted == 0 {
		t.Fatal("no session accepted on a clean link")
	}
	claimed := 0
	for _, g := range groups {
		claimed += seeds - g.Remaining()
	}
	audit := c.AuditClaims()
	if !audit.Clean() {
		t.Fatalf("audit violations: %v", audit.Violations)
	}
	if audit.Frames != claimed {
		t.Fatalf("audit frames = %d, want %d (one per seed claimed)", audit.Frames, claimed)
	}
}

// Overload is a verdict about capacity, not a transport fault: Attest must
// surface it with zero protocol attempts and the retry machinery must
// never classify it as retryable.
func TestAttestOverloadTerminal(t *testing.T) {
	c, err := New(Config{
		Shards:       []string{"shard-0", "shard-1", "shard-2"},
		Replicas:     3,
		MaxInFlight:  1,
		MaxQueue:     -1, // no queue: reject at the gate
		AutoFailover: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const id = 0
	bindTestDevice(t, c, id, 4)
	shardID := c.Ring().Route(DeviceKey(id))
	release, err := c.Shard(shardID).Admission().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, attempts, err := c.Attest(context.Background(), id, attest.RetryPolicy{MaxAttempts: 5, JitterSeed: 1})
	if !IsOverload(err) {
		t.Fatalf("saturated shard: %v, want OverloadError", err)
	}
	if attempts != 0 {
		t.Fatalf("overload consumed %d protocol attempts, want 0", attempts)
	}
	if attest.IsTransport(err) {
		t.Fatal("OverloadError must not be classified as transport")
	}
	release()
	res, _, err := c.Attest(context.Background(), id, attest.RetryPolicy{MaxAttempts: 3, JitterSeed: 1})
	if err != nil || !res.Accepted {
		t.Fatalf("post-release attest: err=%v accepted=%v", err, res.Accepted)
	}
}

func TestClusterEnrollAndBindValidation(t *testing.T) {
	c := threeShards(t, false)
	if _, err := c.Enroll(fakeEnrollment(1, 1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Enroll(fakeEnrollment(1, 1, 20)); err == nil {
		t.Fatal("duplicate enrollment accepted")
	}
	if err := c.Bind(99, nil, nil, attest.Link{}); err == nil {
		t.Fatal("binding an unenrolled device accepted")
	}
	if _, _, err := c.Attest(context.Background(), 42, attest.RetryPolicy{MaxAttempts: 1}); err == nil {
		t.Fatal("attesting an unknown device accepted")
	}
	if err := c.Kill("nope"); err == nil {
		t.Fatal("killing an unknown shard accepted")
	}
	if err := c.Revive("nope"); err == nil {
		t.Fatal("reviving an unknown shard accepted")
	}
	if got := fmt.Sprint(c.Devices()); got != "[1]" {
		t.Fatalf("Devices() = %s", got)
	}
}

// TestAuditEpochOrder: the audit re-derives epoch order from the raw
// frames, independently of the ledgers that refuse such frames on apply,
// so a log holding a backwards (3→1) or foreign (9→2) transition is a
// violation.
func TestAuditEpochOrder(t *testing.T) {
	c := threeShards(t, false)
	g, err := c.Enroll(fakeEnrollment(8, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	clean, violations := c.Metrics().Audits.With("clean").Value(), c.Metrics().Audits.With("violations").Value()
	if !c.AuditClaims().Clean() {
		t.Fatal("fresh enrollment audit not clean")
	}
	for name, frames := range map[string][][]byte{
		"3→1": {crp.TransitionFrame(1, 3), crp.TransitionFrame(3, 1)},
		"9→2": {crp.TransitionFrame(1, 3), crp.TransitionFrame(9, 2)},
	} {
		g.mu.Lock()
		for _, l := range g.logs {
			l.frames = frames
		}
		g.mu.Unlock()
		audit := c.AuditClaims()
		if len(audit.Violations) != 1 || !strings.Contains(audit.Violations[0], "does not advance") {
			t.Fatalf("audit of %s: %v, want one epoch-order violation", name, audit.Violations)
		}
	}
	if got := c.Metrics().Audits.With("clean").Value() - clean; got != 1 {
		t.Fatalf("cluster_claim_audits_total{outcome=clean} delta = %d, want 1", got)
	}
	if got := c.Metrics().Audits.With("violations").Value() - violations; got != 2 {
		t.Fatalf("cluster_claim_audits_total{outcome=violations} delta = %d, want 2", got)
	}
}
