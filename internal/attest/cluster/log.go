package cluster

import (
	"bytes"
	"errors"
	"fmt"

	"pufatt/internal/crp"
)

// The replicated claim log. Each (shard, device) pair holds one deviceLog:
// a crp.Ledger plus the sequence of 16-byte claim frames it applied
// (crp.ClaimFrame / crp.TransitionFrame), in sequence-number order. The
// leader appends locally first — log before acknowledge, the same
// discipline the store's WAL enforces on disk — then streams the frame to
// each live follower and records the acknowledged high-water mark before
// the claim is released to the session.
//
// apply is deliberately paranoid about its three failure axes, because the
// frames are wire input during replication:
//
//   - frame integrity: anything crp.DecodeFrame rejects (short, bad magic,
//     CRC mismatch) is refused with its crp.ErrBadFrame cause;
//   - ordering: a sequence number past applied+1 is a gap (ErrLogGap —
//     the follower must catch up, not guess); a sequence number at or
//     below the applied mark must match the recorded frame byte-for-byte
//     (idempotent re-delivery) or be refused (ErrFrameMismatch);
//   - claim state: the ledger refuses what it refuses everywhere — a seed
//     already burned in its epoch (crp.ErrSeedUsed), a seed the epoch
//     never enrolled, or a transition that does not advance the log's
//     epoch (crp.ErrEpochOrder) — so replication itself can never
//     double-spend a seed or move an epoch backwards.

// Typed claim-log errors. All are terminal for the frame that caused
// them; none is a transport fault.
var (
	// ErrLogGap reports a frame whose sequence number skips past the
	// follower's applied mark.
	ErrLogGap = errors.New("cluster: claim-log sequence gap")
	// ErrFrameMismatch reports a re-delivered sequence number carrying
	// different bytes than the recorded frame — divergent histories, not
	// idempotent retransmission.
	ErrFrameMismatch = errors.New("cluster: claim-log frame mismatch")
)

// deviceLog is one replica's claim history for one device. All access is
// serialised by the owning Group's mutex.
type deviceLog struct {
	ledger *crp.Ledger
	frames [][]byte // frames[i] carries sequence number i+1; never mutated
	// enrs is the group's enrollments by epoch (shared by every replica):
	// applying a transition installs its target epoch's enrollment, so a
	// follower catching up across a cutover re-derives the same state.
	enrs map[uint32]*Enrollment
}

func newDeviceLog(enrs map[uint32]*Enrollment, epoch uint32) *deviceLog {
	return &deviceLog{ledger: crp.NewLedger(enrs[epoch]), enrs: enrs}
}

// applied returns the highest sequence number applied to this log.
func (l *deviceLog) applied() uint64 { return uint64(len(l.frames)) }

// apply validates and applies one frame at the given sequence number.
func (l *deviceLog) apply(seq uint64, frame []byte) error {
	fr, err := crp.DecodeFrame(frame)
	if err != nil {
		return err
	}
	switch {
	case seq == 0:
		return fmt.Errorf("%w: sequence numbers start at 1", ErrLogGap)
	case seq <= l.applied():
		if !bytes.Equal(l.frames[seq-1], frame) {
			return fmt.Errorf("%w: sequence %d", ErrFrameMismatch, seq)
		}
		return nil // idempotent re-delivery
	case seq > l.applied()+1:
		return fmt.Errorf("%w: got sequence %d with %d applied", ErrLogGap, seq, l.applied())
	}
	if err := l.ledger.Apply(fr); err != nil {
		return fmt.Errorf("sequence %d: %w", seq, err)
	}
	if enr := l.enrs[fr.To]; fr.Transition && enr != nil {
		_ = l.ledger.Install(enr) // the ledger awaits exactly fr.To
	}
	l.frames = append(l.frames, append([]byte(nil), frame...))
	return nil
}
