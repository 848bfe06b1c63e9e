package attest

import (
	"errors"
	"fmt"

	"pufatt/internal/crp"
)

// SeedBudget is the verifier-side authentication budget of CRP-database
// verification (paper Section 3.3): a supply of single-use enrolled seeds.
// Claiming is the replay-protection boundary, so implementations must make
// an acknowledged claim stick — crp.Database for in-process budgets,
// store.Store and store.Registry handles for budgets that survive
// restarts.
type SeedBudget interface {
	// NextUnusedWithEpoch claims the next unused enrolled seed and reports
	// the epoch it belongs to in one atomic step, so a concurrent epoch
	// cutover can never hand the verifier a seed from one epoch labelled
	// with another. Once the budget is exhausted it returns
	// crp.ErrExhausted, which the session machinery treats as terminal
	// (never a transport fault, never retried).
	NextUnusedWithEpoch() (uint64, uint32, error)
	// Remaining reports how many authentications the budget still covers.
	Remaining() int
}

// ExhaustedError is the typed lifecycle error for an empty (or retired)
// seed budget: the device is not compromised and not unreachable — it has
// simply consumed its enrolled authentication lifetime and awaits
// re-enrollment under a fresh epoch. Fleet sweeps bucket it separately
// ("exhausted-awaiting-reenroll") and the health registry degrades the
// device instead of marking it suspect. It wraps crp.ErrExhausted, so
// pre-PR6 errors.Is checks keep working.
type ExhaustedError struct {
	Device string // verifier's device name ("" when anonymous)
	Epoch  uint32 // the exhausted enrollment's epoch
	Err    error  // crp.ErrExhausted or crp.ErrEpochRetired
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("attest: device %q seed budget exhausted at epoch %d (awaiting re-enrollment): %v",
		e.Device, e.Epoch, e.Err)
}

func (e *ExhaustedError) Unwrap() error { return e.Err }

// IsExhausted reports whether err is a seed-budget exhaustion — the
// awaiting-reenroll lifecycle state — in either its typed (ExhaustedError)
// or sentinel (crp.ErrExhausted) form.
func IsExhausted(err error) bool {
	var ex *ExhaustedError
	return errors.As(err, &ex) || errors.Is(err, crp.ErrExhausted)
}

// WithSeedBudget binds a seed budget to the verifier: every NewSession
// claims one seed and carries it as the challenge's x0 perturbation, so
// the claim is protocol-bound — a session cannot be issued without
// consuming budget, and a restart of a durable budget cannot resurrect a
// seed some earlier session already used.
func (v *Verifier) WithSeedBudget(b SeedBudget) *Verifier {
	v.Seeds = b
	return v
}

// claimSeed draws the session's x0 from the budget when one is configured.
// The enrolled seed space is 64-bit; the challenge carries its low 32 bits
// (the x0 width), which both sides mix identically. The budget stamps the
// challenge with the claimed seed's epoch in the same step; budgetless
// emulation verifiers use the verifier's static PUFEpoch.
func (v *Verifier) claimSeed(ch *Challenge) error {
	ch.Epoch = v.PUFEpoch
	if v.Seeds == nil {
		return nil
	}
	seed, epoch, err := v.Seeds.NextUnusedWithEpoch()
	if err != nil {
		if errors.Is(err, crp.ErrExhausted) {
			return &ExhaustedError{Device: v.Device, Epoch: epoch, Err: err}
		}
		return fmt.Errorf("attest: claiming session seed: %w", err)
	}
	ch.PUFSeed = uint32(seed)
	ch.Epoch = epoch
	return nil
}

// BudgetRemaining reports the verifier's remaining authentication budget,
// or -1 when no budget is bound (emulation-model verification is
// unlimited).
func (v *Verifier) BudgetRemaining() int {
	if v.Seeds == nil {
		return -1
	}
	return v.Seeds.Remaining()
}
