package cluster

import (
	"errors"
	"testing"

	"pufatt/internal/crp"
)

// Follower replay rejection, exercised with the same frame-surgery
// technique the store's WAL crash tests use: hand-built 16-byte frames,
// selectively corrupted, delivered out of order or twice.

// testLog returns a replica log whose group enrolled seeds at epoch 1.
func testLog(seeds ...uint64) *deviceLog {
	return newDeviceLog(map[uint32]*Enrollment{1: fakeEnrollment(1, 1, seeds...)}, 1)
}

// burned reports whether the log's ledger has claimed seed.
func burned(l *deviceLog, seed uint64) bool {
	return errors.Is(l.ledger.Check(crp.Frame{Seed: seed}), crp.ErrSeedUsed)
}

func TestDeviceLogAppliesInOrder(t *testing.T) {
	l := testLog(0xa1, 0xa2)
	if l.applied() != 0 {
		t.Fatalf("fresh log applied = %d", l.applied())
	}
	if err := l.apply(1, crp.ClaimFrame(0xa1)); err != nil {
		t.Fatal(err)
	}
	if err := l.apply(2, crp.ClaimFrame(0xa2)); err != nil {
		t.Fatal(err)
	}
	if l.applied() != 2 {
		t.Fatalf("applied = %d, want 2", l.applied())
	}
	if !burned(l, 0xa1) || !burned(l, 0xa2) {
		t.Fatal("claimed seeds not burned in the ledger")
	}
}

func TestDeviceLogIdempotentRedelivery(t *testing.T) {
	l := testLog(0xb1, 0xb2)
	frame := crp.ClaimFrame(0xb1)
	if err := l.apply(1, frame); err != nil {
		t.Fatal(err)
	}
	// The same (seq, frame) pair again is retransmission, not replay.
	if err := l.apply(1, frame); err != nil {
		t.Fatalf("idempotent re-delivery refused: %v", err)
	}
	if l.applied() != 1 {
		t.Fatalf("re-delivery duplicated the frame: applied = %d", l.applied())
	}
	// The same sequence number carrying different bytes is divergence.
	err := l.apply(1, crp.ClaimFrame(0xb2))
	if !errors.Is(err, ErrFrameMismatch) {
		t.Fatalf("divergent re-delivery: %v, want ErrFrameMismatch", err)
	}
}

func TestDeviceLogRejectsGaps(t *testing.T) {
	l := testLog(1)
	if err := l.apply(0, crp.ClaimFrame(1)); !errors.Is(err, ErrLogGap) {
		t.Fatalf("sequence 0: %v, want ErrLogGap", err)
	}
	if err := l.apply(2, crp.ClaimFrame(1)); !errors.Is(err, ErrLogGap) {
		t.Fatalf("skipped sequence: %v, want ErrLogGap", err)
	}
	if l.applied() != 0 {
		t.Fatalf("refused frames still applied: %d", l.applied())
	}
}

func TestDeviceLogRejectsSeedReplay(t *testing.T) {
	l := testLog(0xc1)
	if err := l.apply(1, crp.ClaimFrame(0xc1)); err != nil {
		t.Fatal(err)
	}
	// A fresh sequence number re-claiming a burned seed is the replay the
	// protocol exists to refuse.
	err := l.apply(2, crp.ClaimFrame(0xc1))
	if !errors.Is(err, crp.ErrSeedUsed) {
		t.Fatalf("seed replay: %v, want crp.ErrSeedUsed", err)
	}
	if l.applied() != 1 {
		t.Fatalf("replayed frame applied: %d", l.applied())
	}
}

// Frame surgery: every corruption axis crp.DecodeFrame guards must be
// refused before the frame touches log state.
func TestDeviceLogRejectsCorruptFrames(t *testing.T) {
	cases := []struct {
		name     string
		mutilate func([]byte) []byte
	}{
		{"truncated", func(f []byte) []byte { return f[:crp.FrameSize-3] }},
		{"bad magic", func(f []byte) []byte { f[0] ^= 0xff; return f }},
		{"flipped seed bit", func(f []byte) []byte { f[7] ^= 0x01; return f }}, // CRC now stale
		{"corrupt crc", func(f []byte) []byte { f[13] ^= 0x80; return f }},
		{"empty", func([]byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := testLog(0xd1)
			err := l.apply(1, tc.mutilate(crp.ClaimFrame(0xd1)))
			if !errors.Is(err, crp.ErrBadFrame) {
				t.Fatalf("%s frame: %v, want crp.ErrBadFrame", tc.name, err)
			}
			if l.applied() != 0 || l.ledger.Remaining() != 1 {
				t.Fatalf("%s frame leaked into log state", tc.name)
			}
		})
	}
}

func TestDeviceLogEpochTransition(t *testing.T) {
	l := testLog(0xe1)
	l.enrs[2] = fakeEnrollment(1, 2, 0xe1, 0xe2)
	if err := l.apply(1, crp.ClaimFrame(0xe1)); err != nil {
		t.Fatal(err)
	}
	if err := l.apply(2, crp.TransitionFrame(1, 2)); err != nil {
		t.Fatal(err)
	}
	if l.ledger.Epoch() != 2 || l.ledger.Remaining() != 2 {
		t.Fatalf("after transition: epoch %d remaining %d, want 2/2", l.ledger.Epoch(), l.ledger.Remaining())
	}
	// Claims are per (seed, epoch): the seed re-enrolled under epoch 2 is a
	// fresh pair, claimable exactly once.
	if err := l.apply(3, crp.ClaimFrame(0xe1)); err != nil {
		t.Fatalf("re-enrolled seed under the new epoch: %v", err)
	}
	if err := l.apply(4, crp.ClaimFrame(0xe1)); !errors.Is(err, crp.ErrSeedUsed) {
		t.Fatalf("second claim in the new epoch: %v, want crp.ErrSeedUsed", err)
	}
}
