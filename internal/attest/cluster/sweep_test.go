package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"pufatt/internal/attest"
	"pufatt/internal/telemetry"
)

// countingAgent counts the challenges that reach the agent it wraps.
type countingAgent struct {
	inner attest.ProverAgent
	n     atomic.Int64
}

func (a *countingAgent) Respond(ch attest.Challenge) (attest.Response, float64, error) {
	a.n.Add(1)
	return a.inner.Respond(ch)
}

// TestClusterSweepBreaker sweeps a cluster through the fleet: a device
// behind a dead link is quarantined after DefaultQuarantineThreshold
// sweeps, then costs one half-open probe per sweep until its link heals
// and a probe lifts the quarantine. Refusals by the verifier tier
// (admission overload, no serviceable leader) leave the device
// unreachable but never move its breaker: the tier refused, the device
// was never asked.
func TestClusterSweepBreaker(t *testing.T) {
	c, err := New(Config{
		Shards:      []string{"shard-0", "shard-1", "shard-2"},
		Replicas:    3,
		MaxInFlight: 1,
		MaxQueue:    -1, // no queue: reject at the gate
	})
	if err != nil {
		t.Fatal(err)
	}
	T := attest.NewTelemetry(telemetry.NewRegistry(), telemetry.NewTracer(8))
	c.SetTelemetry(T)

	const id = 0
	// Dead for the 7 attempts the first three 2-attempt sweeps and one
	// failed probe consume, then healed.
	var agent *countingAgent
	bindTestDeviceVia(t, c, id, 16, func(p attest.ProverAgent) attest.ProverAgent {
		agent = &countingAgent{inner: attest.NewFaultyLink(p, attest.FaultPlan{Drop: 1, MaxFaults: 7}, 5)}
		return agent
	})
	fleet := attest.NewFleetOver(c, T)
	ctx := context.Background()
	policy := attest.RetryPolicy{MaxAttempts: 2}
	transitions := func(kind string) uint64 { return T.QuarantineTransitions.With(kind).Value() }
	only := func(ids []int) bool { return fmt.Sprint(ids) == fmt.Sprint([]int{id}) }

	for i := 0; i < attest.DefaultQuarantineThreshold; i++ {
		rep := fleet.Sweep(ctx, policy)
		if !only(rep.Unreachable) || rep.Stats.Attempts != 2 {
			t.Fatalf("dead-link sweep %d: %s, %d attempts", i+1, rep, rep.Stats.Attempts)
		}
	}
	if !only(fleet.Quarantined()) || transitions("enter") != 1 || T.QuarantineOpen.Value() != 1 {
		t.Fatalf("after %d sweeps: quarantined=%v enter=%d open=%v", attest.DefaultQuarantineThreshold,
			fleet.Quarantined(), transitions("enter"), T.QuarantineOpen.Value())
	}

	// Sweep 4: exactly one probe reaches the device, and it fails.
	before := agent.n.Load()
	rep := fleet.Sweep(ctx, policy)
	if got := agent.n.Load() - before; got != 1 {
		t.Fatalf("quarantined sweep sent %d challenges, want one probe", got)
	}
	if !only(rep.Quarantined) || rep.Stats.Probes != 1 || rep.Stats.Attempts != 1 {
		t.Fatalf("probe sweep: %s, stats %+v", rep, rep.Stats)
	}
	if transitions("probe_failed") != 1 {
		t.Fatalf("probe_failed transitions = %d, want 1", transitions("probe_failed"))
	}

	// The link has healed: the next probe succeeds and lifts the quarantine.
	rep = fleet.Sweep(ctx, policy)
	if !only(rep.Healthy) || rep.Stats.Probes != 1 || rep.Stats.QuarantineLifted != 1 {
		t.Fatalf("recovery sweep: %s, stats %+v", rep, rep.Stats)
	}
	if len(fleet.Quarantined()) != 0 || transitions("exit") != 1 || T.QuarantineOpen.Value() != 0 {
		t.Fatalf("after recovery: quarantined=%v exit=%d open=%v",
			fleet.Quarantined(), transitions("exit"), T.QuarantineOpen.Value())
	}

	// Refusals by the verifier tier: unreachable, breaker untouched.
	refused := func(label string, is func(error) bool) {
		t.Helper()
		for i := 0; i < attest.DefaultQuarantineThreshold+1; i++ {
			rep := fleet.Sweep(ctx, policy)
			if !only(rep.Unreachable) || !is(rep.Results[0].Err) {
				t.Fatalf("%s sweep %d: %s, err %v", label, i+1, rep, rep.Results[0].Err)
			}
		}
		if len(fleet.Quarantined()) != 0 || transitions("enter") != 1 {
			t.Fatalf("%s refusals moved the breaker: quarantined=%v enter=%d",
				label, fleet.Quarantined(), transitions("enter"))
		}
	}
	shardID := c.Ring().Route(DeviceKey(id))
	release, err := c.Shard(shardID).Admission().Acquire(ctx) // park the only slot
	if err != nil {
		t.Fatal(err)
	}
	refused("overload", IsOverload)
	release()
	if err := c.Kill(shardID); err != nil { // no AutoFailover: the leader is gone
		t.Fatal(err)
	}
	refused("no-leader", func(err error) bool { return errors.Is(err, ErrNoLeader) })
	if err := c.Revive(shardID); err != nil {
		t.Fatal(err)
	}

	if rep := fleet.Sweep(ctx, policy); !only(rep.Healthy) {
		t.Fatalf("after refusals: %s", rep)
	}
	if audit := c.AuditClaims(); !audit.Clean() {
		t.Fatalf("audit violations: %v", audit.Violations)
	}
}
