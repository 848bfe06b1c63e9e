// Package store is the durable, concurrent-safe CRP enrollment store: the
// verifier-side persistence layer for the paper's database verification
// path. The in-memory crp.Database bounds a device's lifetime by the
// enrollment effort and loses all claim state with the process; here the
// enrolled reference responses live in a CRC-checked flat snapshot
// (snapshot.go), claims append to a write-ahead log (wal.go), and periodic
// compaction folds the log back into the snapshot — so single-use replay
// protection survives restarts and crashes. A sharded Registry
// (registry.go) scales the scheme across a fleet of devices with lazy
// snapshot loading and an LRU of hot stores. Claim state itself is a
// crp.Ledger: the store is its durable sink, appending every claim and
// transition frame to the WAL before the ledger applies it.
//
// Since PR 6 the store is epoch-aware: an enrollment belongs to one device
// reconfiguration epoch (core.Device.SetEpoch), and a store can be
// re-enrolled under a fresh epoch without ever resurrecting a consumed
// seed. The cutover protocol (StageEpoch / StagedEpoch.Commit) is
// crash-safe with the same log-before-acknowledge discipline as claims:
//
//  1. the new epoch's references are measured and written to a staged
//     snapshot file (crp.snap.next), durably, while the old epoch keeps
//     serving claims;
//  2. an epoch-transition record is appended to the WAL — the commit
//     point: once durable, the old epoch is retired forever;
//  3. the staged snapshot is renamed over crp.snap;
//  4. the WAL is reset (the transition and all old-epoch claims are now
//     implied by the snapshot's epoch).
//
// Open replays this protocol's every crash point: a staged snapshot with
// no transition record is discarded (the cutover never committed); a
// transition record whose target epoch is newer than the live snapshot
// completes the rename if the staged file survived, and otherwise opens
// the store RETIRED — all claims fail with crp.ErrEpochRetired (never
// serving an old-epoch seed) until a re-enrollment installs the awaited
// epoch.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"pufatt/internal/core"
	"pufatt/internal/crp"
	"pufatt/internal/obfuscate"
)

// Store file names inside a device directory.
const (
	snapshotFile = "crp.snap"
	walFile      = "crp.wal"
	// stagingFile holds the next epoch's enrollment between StageEpoch and
	// Commit. It is never read as the live snapshot; open-time recovery
	// either installs it (transition committed) or discards it.
	stagingFile = "crp.snap.next"
)

// ErrClosed reports an operation on a closed store (typically one the
// registry evicted; re-fetch through Registry.Handle, which reopens).
var ErrClosed = errors.New("crpstore: store closed")

// Options tunes durability and compaction.
type Options struct {
	// NoSync skips the fsync after WAL appends and snapshot writes. The
	// write ordering (log before acknowledge, write-rename for snapshots)
	// is preserved, so the store stays consistent across process crashes;
	// only power-loss durability is traded for throughput.
	NoSync bool
	// CompactEvery folds the WAL into the snapshot automatically once it
	// holds this many claim records (0 = only compact on explicit Compact
	// calls). Compaction bounds both WAL growth and reopen replay time.
	CompactEvery int
	// MaxOpen bounds how many device stores a Registry keeps open at once
	// (0 = DefaultMaxOpen). Least-recently-used stores beyond the bound
	// are closed; their state is durable, so they simply reload on next
	// use.
	MaxOpen int
}

// DefaultOptions returns the production posture: fsync on every claim,
// compaction every 4096 claims, up to 256 resident stores.
func DefaultOptions() Options {
	return Options{CompactEvery: 4096, MaxOpen: 256}
}

// Store is the durable CRP database of one device: a crp.Ledger whose
// frames are logged before they apply. It implements core.ReferenceSource
// (reference lookups for the verifier pipeline) and the claim surface of
// crp.Database (Claim, NextUnusedWithEpoch, Remaining). All methods are
// safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu         sync.Mutex
	enr        *crp.Enrollment // the live snapshot's enrollment (the retired one while retired)
	led        *crp.Ledger
	wal        *wal
	walRecords int
	closed     bool
}

// Open loads the device store in dir: snapshot first, then epoch-cutover
// recovery, then WAL replay. After Open returns, every claim and every
// epoch transition acknowledged before the last shutdown or crash is in
// force again — in particular, no seed of a retired epoch is claimable.
func Open(dir string, opts Options) (*Store, error) {
	snap, err := readSnapshotFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	return openWith(dir, snap, nil, opts)
}

// openWith wires a decoded snapshot (and its enrollment, when the caller
// already built it) to its WAL, running the epoch-cutover crash recovery
// described in the package comment. Recovery is frames applied to a fresh
// ledger: the snapshot's used bitmap as claims, then every WAL frame the
// snapshot does not already imply.
func openWith(dir string, snap *snapshot, enr *crp.Enrollment, opts Options) (*Store, error) {
	w, frames, err := openWAL(filepath.Join(dir, walFile), !opts.NoSync)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Store, error) {
		w.close()
		return nil, err
	}
	staging := filepath.Join(dir, stagingFile)
	last := -1
	for i, fr := range frames {
		if fr.Transition {
			last = i
		}
	}
	if last >= 0 && frames[last].To > snap.epoch {
		// The cutover committed (the transition record is durable) but the
		// staged snapshot was never renamed into place. If it survived,
		// finish the rename; if not, the transition's replay below retires
		// the old epoch and the store opens with every claim refused until
		// re-enrollment.
		staged, serr := readSnapshotFile(staging)
		if serr == nil && staged.epoch == frames[last].To {
			if err := os.Rename(staging, filepath.Join(dir, snapshotFile)); err != nil {
				return fail(fmt.Errorf("crpstore: completing epoch cutover: %w", err))
			}
			if !opts.NoSync {
				syncDir(dir)
			}
			snap, enr = staged, nil
			epochRecoveries.Inc()
		}
	} else if _, serr := os.Stat(staging); serr == nil {
		// No committed transition past the live snapshot: a staged file
		// here is an uncommitted cutover. Discard it; the old epoch stays
		// live (and its claims stay in force).
		_ = os.Remove(staging)
		epochStagingsDiscarded.Inc()
	}
	if enr == nil {
		if enr, err = crp.NewEnrollment(snap.chipID, snap.bits, snap.epoch, snap.seeds, snap.flat); err != nil {
			return fail(fmt.Errorf("crpstore: snapshot: %w", err))
		}
	}
	led := crp.NewLedger(enr)
	for i, used := range snap.used {
		if used {
			_ = led.Apply(crp.Frame{Seed: snap.seeds[i]}) // cannot fail: enrolled seeds are unique
		}
	}
	// Frames up to the last transition into the snapshot's epoch belong to
	// an enrollment the snapshot superseded (a crash between a cutover's
	// rename and its WAL reset leaves them): their seeds may not even be
	// enrolled any more, and that is not corruption. A claim the snapshot
	// already holds is legal too: a crash between compaction's rename and
	// its WAL truncation leaves the frame in both places.
	start := 0
	for i, fr := range frames {
		if fr.Transition && fr.To == snap.epoch {
			start = i + 1
		}
	}
	for i, fr := range frames[start:] {
		if err := led.Apply(fr); err != nil && !errors.Is(err, crp.ErrSeedUsed) {
			return fail(fmt.Errorf("%w: frame %d: %w", ErrWALCorrupt, start+i, err))
		}
	}
	if led.Retired() {
		epochRetiredOpens.Inc()
	}
	return &Store{dir: dir, opts: opts, enr: enr, led: led, wal: w, walRecords: len(frames)}, nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// create installs a fresh enrollment snapshot in dir and opens it. It
// refuses to overwrite an existing enrollment: re-enrolling a device with
// claims outstanding would resurrect consumed seeds (epoch cutovers go
// through StageEpoch/Commit instead, which retire the old seeds first).
func create(dir string, enr *crp.Enrollment, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, snapshotFile)
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("crpstore: %s already holds an enrollment", dir)
	}
	snap := snapshotOf(enr, nil)
	if err := writeSnapshotFile(path, snap, !opts.NoSync); err != nil {
		return nil, err
	}
	return openWith(dir, snap, enr, opts)
}

// Create installs an enrollment from externally measured reference data
// (an FPGA collection run, an import from another verifier): refs holds
// len(seeds)*RefsPerSeed rows in seed-major order, each bits wide. The
// enrollment is installed at epoch 0.
func Create(dir string, chipID, bits int, seeds []uint64, refs [][]uint8, opts Options) (*Store, error) {
	refsPer := obfuscate.ResponsesPerOutput
	if len(refs) != len(seeds)*refsPer {
		return nil, fmt.Errorf("crpstore: %d reference rows for %d seeds (need %d per seed)",
			len(refs), len(seeds), refsPer)
	}
	flat := make([]uint8, len(refs)*bits)
	for k, row := range refs {
		if len(row) != bits {
			return nil, fmt.Errorf("crpstore: reference row %d is %d bits, want %d", k, len(row), bits)
		}
		copy(flat[k*bits:(k+1)*bits], row)
	}
	enr, err := crp.NewEnrollment(chipID, bits, 0, append([]uint64(nil), seeds...), flat)
	if err != nil {
		return nil, err
	}
	return create(dir, enr, opts)
}

// Enroll measures the device's noiseless reference responses for every
// seed (crp.Measure, parallel across workers; ≤0 = GOMAXPROCS) and
// installs them as a durable enrollment in dir, stamped with the device's
// current epoch.
func Enroll(dir string, dev *core.Device, seeds []uint64, workers int, opts Options) (*Store, error) {
	enr, err := crp.Measure(dev, seeds, workers)
	if err != nil {
		return nil, err
	}
	return create(dir, enr, opts)
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// enrollment returns the live snapshot's enrollment.
func (st *Store) enrollment() *crp.Enrollment {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.enr
}

// ChipID returns the chip this store was enrolled for.
func (st *Store) ChipID() int { return st.enrollment().ChipID() }

// ResponseBits implements core.ReferenceSource.
func (st *Store) ResponseBits() int { return st.enrollment().ResponseBits() }

// Len returns the number of enrolled seeds.
func (st *Store) Len() int { return st.enrollment().Len() }

// Epoch returns the device reconfiguration epoch of the live enrollment.
func (st *Store) Epoch() uint32 { return st.enrollment().Epoch() }

// Retired reports whether the store's epoch was retired with no live
// successor (see crp.ErrEpochRetired).
func (st *Store) Retired() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.led.Retired()
}

// AwaitingEpoch returns the committed cutover target a retired store is
// waiting on (0 when the store is live).
func (st *Store) AwaitingEpoch() uint32 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.led.Retired() {
		return st.led.Epoch()
	}
	return 0
}

// ReferenceResponse implements core.ReferenceSource with a caller-owned
// copy. As with crp.Database, the seed must have been claimed first.
func (st *Store) ReferenceResponse(seed uint64, j int) ([]uint8, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, ErrClosed
	}
	return st.led.Reference(seed, j)
}

// applyLocked is validate, log, apply: the frame is checked against the
// ledger, appended to the WAL, and only then applied. If the append fails
// (or the process dies inside it) nothing was acknowledged, and a replayed
// torn tail drops the frame.
func (st *Store) applyLocked(fr crp.Frame) error {
	if err := st.led.Check(fr); err != nil {
		return err
	}
	if err := st.wal.append(fr); err != nil {
		return err
	}
	st.walRecords++
	return st.led.Apply(fr)
}

// Claim durably marks a seed as consumed: the claim record is on disk (in
// its WAL) before Claim acknowledges, so the seed stays rejected as a
// replay after any restart. Unknown and already-used seeds fail with the
// crp package's sentinel errors.
func (st *Store) Claim(seed uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.claimLocked(seed)
}

func (st *Store) claimLocked(seed uint64) error {
	if st.closed {
		return ErrClosed
	}
	if err := crp.CountClaim(st.applyLocked(crp.Frame{Seed: seed})); err != nil {
		return err
	}
	if st.opts.CompactEvery > 0 && st.walRecords >= st.opts.CompactEvery {
		// The claim itself is already durable and acknowledged; a failed
		// fold only defers compaction to the next trigger.
		_ = st.compactLocked()
	}
	return nil
}

// NextUnusedWithEpoch durably claims the next unused seed in enrollment
// order and returns its epoch under the same lock acquisition — the atomic
// (seed, epoch) pair an epoch-negotiating verifier binds into one
// challenge, so a concurrent cutover can never split a session across
// epochs.
func (st *Store) NextUnusedWithEpoch() (uint64, uint32, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, 0, ErrClosed
	}
	seed, err := st.led.Next()
	if err != nil {
		return 0, st.enr.Epoch(), crp.CountClaim(err)
	}
	if err := st.claimLocked(seed); err != nil {
		return 0, st.enr.Epoch(), err
	}
	return seed, st.enr.Epoch(), nil
}

// Remaining returns how many authentications the store still supports
// (O(1); 0 for a retired store).
func (st *Store) Remaining() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.led.Remaining()
}

// WALRecords returns the number of records currently in the WAL — the
// replay work a reopen would do before the next compaction.
func (st *Store) WALRecords() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.walRecords
}

// Compact folds the WAL into a fresh snapshot (atomically installed via
// write-and-rename) and empties the log. A crash at any point leaves a
// consistent store: either the old snapshot plus the full WAL, or the new
// snapshot plus a WAL whose replay is idempotent.
func (st *Store) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if st.led.Retired() {
		// Nothing to fold: a retired store's claim state is terminal and
		// fully described by the WAL's transition record, which must
		// survive until re-enrollment.
		return nil
	}
	return st.compactLocked()
}

func (st *Store) compactLocked() error {
	if err := writeSnapshotFile(filepath.Join(st.dir, snapshotFile), snapshotOf(st.enr, st.led.Used()), !st.opts.NoSync); err != nil {
		return err
	}
	// Only after the snapshot rename is durable may the WAL be emptied;
	// the reverse order could lose claims.
	if err := st.wal.reset(); err != nil {
		return err
	}
	st.walRecords = 0
	return nil
}

// StagedEpoch is a measured-but-uncommitted re-enrollment: the next
// epoch's references, durable in the staging file but not yet live.
// Commit performs the cutover; Discard abandons it. Until Commit's
// transition record is on disk, the old epoch keeps serving claims and a
// crash changes nothing.
type StagedEpoch struct {
	st  *Store
	enr *crp.Enrollment
}

// Epoch returns the staged enrollment's epoch.
func (se *StagedEpoch) Epoch() uint32 { return se.enr.Epoch() }

// Len returns the number of staged seeds.
func (se *StagedEpoch) Len() int { return se.enr.Len() }

// StageEpoch measures a re-enrollment for the device's CURRENT epoch —
// the caller reconfigures the device (core.Device.SetEpoch) first — and
// writes it durably to the staging file without touching the live
// enrollment. The staged epoch must advance the store's (and reach the
// awaited epoch when the store is retired), or it fails with
// crp.ErrEpochOrder. Claims against the old epoch proceed concurrently;
// the budget keeps draining while the new epoch is prepared.
func (st *Store) StageEpoch(dev *core.Device, seeds []uint64, workers int) (*StagedEpoch, error) {
	st.mu.Lock()
	err := st.led.Admits(dev.Epoch())
	if st.closed {
		err = ErrClosed
	}
	st.mu.Unlock()
	if err != nil {
		return nil, err
	}
	enr, err := crp.Measure(dev, seeds, workers)
	if err != nil {
		return nil, err
	}
	if err := writeSnapshotFile(filepath.Join(st.dir, stagingFile), snapshotOf(enr, nil), !st.opts.NoSync); err != nil {
		return nil, err
	}
	return &StagedEpoch{st: st, enr: enr}, nil
}

// Commit performs the epoch cutover: transition record (the durable
// commit point — from here the old epoch is retired), snapshot rename,
// WAL reset, enrollment install. Claims are serialised against the
// cutover by the store lock, so every claim lands entirely in one epoch.
func (se *StagedEpoch) Commit() error {
	st := se.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	epoch := se.enr.Epoch()
	if err := st.led.Admits(epoch); err != nil {
		return err
	}
	staging := filepath.Join(st.dir, stagingFile)
	if _, err := os.Stat(staging); err != nil {
		return fmt.Errorf("crpstore: staged epoch %d: %w", epoch, err)
	}
	// A retired store already holds the durable transition to the epoch
	// it awaits; otherwise the transition is logged before anything else
	// changes. A crash after this append and before the rename opens the
	// store retired — old seeds unclaimable — and recovers from the
	// staging file.
	if !st.led.Retired() || epoch != st.led.Epoch() {
		if err := st.applyLocked(crp.Frame{Transition: true, From: st.led.Epoch(), To: epoch}); err != nil {
			return err
		}
	}
	if err := os.Rename(staging, filepath.Join(st.dir, snapshotFile)); err != nil {
		return fmt.Errorf("crpstore: installing epoch snapshot: %w", err)
	}
	if !st.opts.NoSync {
		syncDir(st.dir)
	}
	if err := st.wal.reset(); err != nil {
		return err
	}
	st.walRecords = 0
	st.enr = se.enr
	return st.led.Install(se.enr)
}

// Discard abandons a staged re-enrollment, removing its staging file. The
// live enrollment is untouched; a second Discard is a no-op.
func (se *StagedEpoch) Discard() error {
	err := os.Remove(filepath.Join(se.st.dir, stagingFile))
	if err == nil {
		epochStagingsDiscarded.Inc()
	}
	if err == nil || errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// Reenroll is StageEpoch + Commit in one call: measure the device's
// current (fresh) epoch and cut the store over to it. Callers that need
// to coordinate the cutover with live traffic (attest.Reenroller) use the
// two-step form and commit inside their own barrier.
func (st *Store) Reenroll(dev *core.Device, seeds []uint64, workers int) error {
	staged, err := st.StageEpoch(dev, seeds, workers)
	if err != nil {
		return err
	}
	return staged.Commit()
}

// Close releases the store's WAL handle. Claim state is durable; reopening
// with Open restores it.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	return st.wal.close()
}
