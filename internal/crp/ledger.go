package crp

import (
	"errors"
	"fmt"

	"pufatt/internal/ecc"
	"pufatt/internal/obfuscate"
)

// Errors of the claim state machine, shared by every holder of claim
// state.
var (
	// ErrEpochOrder reports a transition (or a re-enrollment) that does not
	// advance the ledger's epoch, or whose From is not the ledger's epoch.
	// Epochs are monotonic: re-using one would alias two different
	// reference sets under the same (seed, epoch) coordinates.
	ErrEpochOrder = errors.New("crp: epoch transition must advance the ledger's epoch")
	// ErrEpochRetired reports a claim or lookup against a ledger whose
	// epoch a transition retired before the next epoch's enrollment was
	// installed. It wraps ErrExhausted: to the attestation layer a retired
	// budget is an empty one awaiting re-enrollment.
	ErrEpochRetired = fmt.Errorf("crp: epoch retired, awaiting re-enrollment: %w", ErrExhausted)
	// ErrNotClaimed reports a reference lookup for a seed that was not
	// claimed first, so a protocol bug cannot silently bypass replay
	// protection.
	ErrNotClaimed = errors.New("crp: seed not claimed before use")
)

// Ledger is the claim state machine: the only code that knows which
// enrolled seeds are spent. It holds one epoch's enrollment, the used set
// of that epoch, the NextUnused cursor, the unused count and the epoch,
// and it changes only by applying a Frame:
//
//   - a claim succeeds once per (seed, epoch) and otherwise fails with
//     ErrUnknownSeed, ErrSeedUsed, or ErrEpochRetired;
//   - a transition must start at the ledger's epoch and advance it, or it
//     fails with ErrEpochOrder. An accepted transition retires the epoch:
//     every claim fails until Install supplies the new epoch's enrollment,
//     which starts a fresh used set.
//
// Each holder of claim state is a sink around one ledger: crp.Database
// (memory), store.Store (the WAL, appended before the frame applies), and
// each replica of a cluster group (the replicated frame log). A Ledger is
// not safe for concurrent use; its holder serialises access under the
// lock that also covers its sink.
type Ledger struct {
	enr    *Enrollment // the live epoch's enrollment; nil while retired
	epoch  uint32
	used   []bool // per enrollment position
	cursor int    // NextUnused scan position; only advances within an epoch
	unused int
}

// NewLedger returns a ledger with enr live and nothing claimed.
func NewLedger(enr *Enrollment) *Ledger {
	l := &Ledger{}
	l.install(enr)
	return l
}

func (l *Ledger) install(enr *Enrollment) {
	l.enr, l.epoch = enr, enr.epoch
	l.used = make([]bool, len(enr.seeds))
	l.cursor, l.unused = 0, len(enr.seeds)
}

// Check reports the error Apply would return for f, without applying it:
// the validate step of validate, log, apply.
func (l *Ledger) Check(f Frame) error {
	if f.Transition {
		if f.From != l.epoch || f.To <= l.epoch {
			return fmt.Errorf("%w: transition %d→%d at epoch %d", ErrEpochOrder, f.From, f.To, l.epoch)
		}
		return nil
	}
	if l.enr == nil {
		return ErrEpochRetired
	}
	i, ok := l.enr.index[f.Seed]
	if !ok {
		return ErrUnknownSeed
	}
	if l.used[i] {
		return ErrSeedUsed
	}
	return nil
}

// Apply applies one frame, or changes nothing and returns why not.
func (l *Ledger) Apply(f Frame) error {
	if err := l.Check(f); err != nil {
		return err
	}
	if f.Transition {
		l.enr, l.epoch, l.used, l.cursor, l.unused = nil, f.To, nil, 0, 0
		return nil
	}
	l.used[l.enr.index[f.Seed]] = true
	l.unused--
	return nil
}

// Admits reports whether an enrollment at epoch may be installed next: a
// live ledger needs a later epoch (and a transition to it), a retired one
// accepts the epoch it awaits or a later one.
func (l *Ledger) Admits(epoch uint32) error {
	if epoch > l.epoch || (l.enr == nil && epoch == l.epoch) {
		return nil
	}
	return fmt.Errorf("%w: epoch %d, ledger at %d (retired %v)", ErrEpochOrder, epoch, l.epoch, l.enr == nil)
}

// Install makes enr the live enrollment of the epoch a transition left the
// ledger awaiting.
func (l *Ledger) Install(enr *Enrollment) error {
	if l.enr != nil || enr.epoch != l.epoch {
		return fmt.Errorf("%w: installing epoch %d, ledger at %d (retired %v)", ErrEpochOrder, enr.epoch, l.epoch, l.enr == nil)
	}
	l.install(enr)
	return nil
}

// Next returns the next unused seed in enrollment order without claiming
// it. Seeds claimed directly are skipped silently: a skip is bookkeeping,
// not a replay attempt.
func (l *Ledger) Next() (uint64, error) {
	if l.enr == nil {
		return 0, ErrEpochRetired
	}
	for ; l.cursor < len(l.used); l.cursor++ {
		if !l.used[l.cursor] {
			return l.enr.seeds[l.cursor], nil
		}
	}
	return 0, ErrExhausted
}

// NextUnused claims and returns the next unused seed (attest.SeedBudget).
func (l *Ledger) NextUnused() (uint64, error) {
	seed, err := l.Next()
	if err != nil {
		return 0, err
	}
	return seed, l.Apply(Frame{Seed: seed})
}

// Remaining returns the live epoch's unclaimed seed count, in O(1)
// (attest.SeedBudget); 0 while retired.
func (l *Ledger) Remaining() int { return l.unused }

// Epoch returns the ledger's epoch: the live enrollment's, or while
// retired, the epoch the ledger awaits.
func (l *Ledger) Epoch() uint32 { return l.epoch }

// Retired reports whether a transition retired the ledger's epoch and the
// next enrollment is not installed yet.
func (l *Ledger) Retired() bool { return l.enr == nil }

// Enrollment returns the live enrollment (nil while retired).
func (l *Ledger) Enrollment() *Enrollment { return l.enr }

// Used returns a copy of the live epoch's used set, by enrollment
// position.
func (l *Ledger) Used() []bool { return append([]bool(nil), l.used...) }

// Reference returns reference response j of a seed the ledger has claimed
// in its live epoch, unpacked into a fresh, caller-owned slice.
func (l *Ledger) Reference(seed uint64, j int) ([]uint8, error) {
	if l.enr == nil {
		return nil, ErrEpochRetired
	}
	i, ok := l.enr.index[seed]
	switch {
	case !ok:
		return nil, ErrUnknownSeed
	case !l.used[i]:
		return nil, fmt.Errorf("%w: %#x", ErrNotClaimed, seed)
	case j < 0 || j >= obfuscate.ResponsesPerOutput:
		return nil, fmt.Errorf("crp: reference index %d out of range", j)
	case l.enr.refs == nil:
		return nil, errors.New("crp: claim-only enrollment holds no references")
	}
	return ecc.WordToBits(l.enr.refs[i*obfuscate.ResponsesPerOutput+j], l.enr.bits), nil
}
