package store

import (
	"errors"
	"fmt"
	"io"
	"os"

	"pufatt/internal/crp"
)

// The claim WAL is the store's crash-safety mechanism for the mutable half
// of its state. The snapshot holds the enrolled references (large, mostly
// immutable); the WAL holds the claim frames (crp.Frame, 16 bytes each)
// applied since the last compaction (small, hot). A frame is appended
// before the ledger applies it and before the claim or cutover it records
// is acknowledged, so replay protection survives any crash: on open, the
// WAL's frames replay through the ledger on top of the snapshot.
//
// Fixed-size CRC-framed records make the torn-write story simple: a crash
// mid-append leaves a short or CRC-failing frame at the tail, which open
// detects, truncates, and continues past — the interrupted claim was never
// acknowledged, so dropping it is correct. An invalid frame *followed by
// more data* cannot be a torn append and is reported as corruption.

// ErrWALCorrupt reports an invalid record in the interior of the WAL —
// damage no torn final append can explain.
var ErrWALCorrupt = errors.New("crpstore: claim WAL corrupted")

// wal is an append-only claim log over one file.
type wal struct {
	f    *os.File
	sync bool // fsync after every append (durability vs throughput)
}

// openWAL opens (creating if absent) the claim log, validates it, and
// returns every durable frame in append order. A torn tail is truncated
// away; interior corruption is an error.
func openWAL(path string, sync bool) (*wal, []crp.Frame, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("crpstore: opening claim WAL: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("crpstore: reading claim WAL: %w", err)
	}
	var frames []crp.Frame
	valid := 0
	for ; valid+crp.FrameSize <= len(data); valid += crp.FrameSize {
		fr, err := crp.DecodeFrame(data[valid : valid+crp.FrameSize])
		if err != nil {
			break
		}
		frames = append(frames, fr)
	}
	if tail := len(data) - valid; tail > crp.FrameSize {
		// More than one frame's worth of unparseable bytes: not a torn
		// append but real damage. Refuse to guess.
		f.Close()
		return nil, nil, fmt.Errorf("%w: invalid record at offset %d with %d bytes following",
			ErrWALCorrupt, valid, tail)
	} else if tail > 0 {
		walTornTails.Inc()
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("crpstore: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &wal{f: f, sync: sync}, frames, nil
}

// append writes one frame. The frame is on disk (and, in sync mode,
// fsynced) before append returns; only then may it be applied and the
// operation it logs acknowledged.
func (w *wal) append(fr crp.Frame) error {
	if _, err := w.f.Write(fr.Encode()); err != nil {
		return fmt.Errorf("crpstore: appending claim frame: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("crpstore: syncing claim WAL: %w", err)
		}
	}
	return nil
}

// reset empties the log after its claims have been folded into a snapshot.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("crpstore: truncating claim WAL: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if w.sync {
		return w.f.Sync()
	}
	return nil
}

func (w *wal) close() error { return w.f.Close() }
