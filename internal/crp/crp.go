// Package crp implements the challenge/response-pair database verification
// path of Section 2: the verifier records reference responses before the
// device is deployed and consumes them one challenge seed per
// authentication.
//
// The paper names the two drawbacks this repository's experiments quantify
// against the emulation approach: the database's storage grows linearly
// with the number of supported authentications, and — because re-using a
// CRP would enable replay — each seed is single-use, bounding the device's
// lifetime authentication count by the enrollment effort.
//
// Claim state has one implementation, the Ledger (ledger.go), which
// changes only by applying 16-byte claim frames (frame.go). Database is
// its in-memory holder; the durable store (crp/store) and the replicated
// claim log (attest/cluster) hold a ledger each in the same way.
package crp

import (
	"errors"
	"sync"

	"pufatt/internal/core"
	"pufatt/internal/obfuscate"
)

// Errors returned by database lookups.
var (
	ErrUnknownSeed = errors.New("crp: challenge seed not enrolled")
	ErrSeedUsed    = errors.New("crp: challenge seed already consumed (replay protection)")
	ErrExhausted   = errors.New("crp: database exhausted")
)

// Database is an in-memory CRP store for one device: a Ledger and the
// enrollment it holds. It implements core.ReferenceSource, so a
// core.VerifierPipeline can run off it directly.
//
// A Database is safe for concurrent use: Claim is the replay-protection
// boundary, and a fleet sweep claims seeds from many goroutines at once, so
// every method serialises on one mutex.
type Database struct {
	mu  sync.Mutex
	led *Ledger
}

// Enroll measures the device's noiseless reference responses for every
// challenge seed (Measure) and records them at the device's current epoch.
func Enroll(dev *core.Device, seeds []uint64) (*Database, error) {
	enr, err := Measure(dev, seeds, 0)
	if err != nil {
		return nil, err
	}
	return &Database{led: NewLedger(enr)}, nil
}

// enrollment returns the live enrollment. A Database installs every
// transition's enrollment under the same lock, so it is never nil.
func (db *Database) enrollment() *Enrollment {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.led.Enrollment()
}

// ChipID returns the chip this database was enrolled for.
func (db *Database) ChipID() int { return db.enrollment().ChipID() }

// Epoch returns the device reconfiguration epoch of the live enrollment.
func (db *Database) Epoch() uint32 { return db.enrollment().Epoch() }

// CommitEpoch cuts the database over to a re-enrollment measured at a
// later epoch: the transition retires every seed of the old epoch, and the
// new enrollment starts with nothing claimed. An epoch that does not
// advance fails with ErrEpochOrder.
func (db *Database) CommitEpoch(enr *Enrollment) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.led.Apply(Frame{Transition: true, From: db.led.Epoch(), To: enr.Epoch()}); err != nil {
		return err
	}
	return db.led.Install(enr)
}

// NextUnusedWithEpoch claims the next unused seed and reports the epoch it
// belongs to, atomically — the pair an epoch-negotiating verifier binds
// into one challenge.
func (db *Database) NextUnusedWithEpoch() (uint64, uint32, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	seed, epoch, err := db.led.NextUnusedWithEpoch()
	return seed, epoch, CountClaim(err)
}

// ResponseBits implements core.ReferenceSource.
func (db *Database) ResponseBits() int { return db.enrollment().ResponseBits() }

// ReferenceResponse implements core.ReferenceSource with a caller-owned
// copy. The seed must have been claimed (Claim or NextUnusedWithEpoch)
// first.
func (db *Database) ReferenceResponse(seed uint64, j int) ([]uint8, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.led.Reference(seed, j)
}

// Claim marks a seed as consumed. It fails on unknown or already-used
// seeds; a seed can never be claimed twice, even under concurrent claims.
func (db *Database) Claim(seed uint64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return CountClaim(db.led.Apply(Frame{Seed: seed}))
}

// Remaining returns how many authentications the database still supports,
// in O(1).
func (db *Database) Remaining() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.led.Remaining()
}

// Len returns the number of enrolled seeds.
func (db *Database) Len() int { return db.enrollment().Len() }

// StorageBytes returns the approximate storage the database requires: per
// seed, 8 bytes of seed plus eight reference responses of ResponseBits each.
// This is the scalability cost the emulation approach avoids.
func (db *Database) StorageBytes() int {
	enr := db.enrollment()
	perSeed := 8 + obfuscate.ResponsesPerOutput*((enr.ResponseBits()+7)/8)
	return perSeed * enr.Len()
}
