package attest

import (
	"context"
	"errors"
	"testing"

	"pufatt/internal/crp"
	"pufatt/internal/telemetry"
)

func budgetDB(t *testing.T, f *fixture, n int) *crp.Database {
	t.Helper()
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	db, err := crp.Enroll(f.dev, seeds)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSessionConsumesSeedBudget(t *testing.T) {
	f := newFixture(t, 60)
	db := budgetDB(t, f, 3)
	f.verifier.WithSeedBudget(db)

	if got := f.verifier.BudgetRemaining(); got != 3 {
		t.Fatalf("BudgetRemaining = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		res, err := RunSession(f.verifier, f.prover, DefaultLink())
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if !res.Accepted {
			t.Fatalf("session %d rejected: %s", i, res.Reason)
		}
		if got := f.verifier.BudgetRemaining(); got != 2-i {
			t.Fatalf("after session %d: BudgetRemaining = %d, want %d", i, got, 2-i)
		}
	}
	// Budget spent: the next session must fail with the crp sentinel — a
	// terminal error, not a rejection verdict.
	if _, err := RunSession(f.verifier, f.prover, DefaultLink()); !errors.Is(err, crp.ErrExhausted) {
		t.Fatalf("exhausted budget: got %v, want ErrExhausted", err)
	}
}

func TestBudgetBindsSeedIntoChallenge(t *testing.T) {
	f := newFixture(t, 61)
	db := budgetDB(t, f, 2)
	f.verifier.WithSeedBudget(db)
	ch, err := f.verifier.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if ch.PUFSeed != 1 {
		t.Fatalf("challenge x0 = %#x, want the claimed seed 1", ch.PUFSeed)
	}
	// The claimed seed is consumed even if the session never completes.
	if db.Remaining() != 1 {
		t.Fatalf("Remaining = %d after claim", db.Remaining())
	}
	if err := db.Claim(1); !errors.Is(err, crp.ErrSeedUsed) {
		t.Fatalf("session seed still claimable: %v", err)
	}
}

func TestExhaustedBudgetNotRetriedAsTransport(t *testing.T) {
	f := newFixture(t, 62)
	db := budgetDB(t, f, 1)
	f.verifier.WithSeedBudget(db)
	if _, err := f.verifier.NewSession(); err != nil {
		t.Fatal(err)
	}

	// The budget is gone; a retried session must fail once, terminally,
	// without burning the transport budget on attempts.
	_, attempts, err := RunSessionRetry(context.Background(), f.verifier, f.prover, DefaultLink(),
		RetryPolicy{MaxAttempts: 5})
	if !errors.Is(err, crp.ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
	if IsTransport(err) {
		t.Fatal("budget exhaustion classified as a transport fault")
	}
	if attempts != 1 {
		t.Fatalf("%d attempts burned on a terminal error", attempts)
	}
}

func TestUnbudgetedVerifierUnlimited(t *testing.T) {
	f := newFixture(t, 63)
	if got := f.verifier.BudgetRemaining(); got != -1 {
		t.Fatalf("BudgetRemaining without budget = %d, want -1", got)
	}
	if _, err := f.verifier.NewSession(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetSweepSharedBudgetRace sweeps a fleet whose verifiers all draw
// from one shared crp.Database — the acceptance scenario for the database
// race fix: concurrent NextUnused/Claim across sweep workers must neither
// double-issue a seed nor corrupt the budget count.
func TestFleetSweepSharedBudgetRace(t *testing.T) {
	const nodes = 12
	f := newFixture(t, 64)
	pool := budgetDB(t, f, nodes*2)

	fleet := NewFleet()
	fleet.Telemetry = NewTelemetry(telemetry.NewRegistry(), telemetry.NewTracer(8))
	for id := 0; id < nodes; id++ {
		nf := newFixture(t, 64) // same seed: identical honest devices
		if err := fleet.Enroll(id, nf.verifier.WithSeedBudget(pool), nf.prover, DefaultLink()); err != nil {
			t.Fatal(err)
		}
	}

	report := fleet.Sweep(context.Background(), RetryPolicy{MaxAttempts: 3})
	if len(report.Healthy) != nodes {
		t.Fatalf("%s", report)
	}
	if got := pool.Remaining(); got != nodes {
		t.Fatalf("shared budget Remaining = %d, want %d", got, nodes)
	}

	// Second sweep drains the pool exactly; nothing is double-counted.
	report = fleet.Sweep(context.Background(), RetryPolicy{MaxAttempts: 3})
	if len(report.Healthy) != nodes {
		t.Fatalf("second sweep: %s", report)
	}
	if got := pool.Remaining(); got != 0 {
		t.Fatalf("budget Remaining after two sweeps = %d, want 0", got)
	}

	// Third sweep: every node fails terminally (exhausted), none retried
	// as transport, and the parallel claims stay consistent. Exhaustion is
	// its own lifecycle regime — awaiting re-enrollment, not unreachable.
	report = fleet.Sweep(context.Background(), RetryPolicy{MaxAttempts: 3})
	if len(report.Exhausted) != nodes {
		t.Fatalf("exhausted sweep: %s", report)
	}
	if len(report.Unreachable) != 0 {
		t.Fatalf("exhausted nodes misclassified as unreachable: %s", report)
	}
	for _, r := range report.Results {
		if !errors.Is(r.Err, crp.ErrExhausted) {
			t.Fatalf("node %d: %v, want ErrExhausted", r.NodeID, r.Err)
		}
		if r.Attempts != 1 {
			t.Fatalf("node %d burned %d attempts on an exhausted budget", r.NodeID, r.Attempts)
		}
	}
}
