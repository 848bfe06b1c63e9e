package attest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"pufatt/internal/telemetry"
)

// Flight-recorder dumps: when a session fails — the transport budget
// exhausts or the verifier rejects — the journal's recent history is the
// post-mortem, and it is worth nothing if the operator only thinks to fetch
// /debug/journal hours later, after the ring has turned over. With a flight
// directory configured, the failure handler snapshots the journal to a file
// at the moment of failure, named by the trigger's monotonic dump sequence
// and the trigger (never a timestamp: filenames stay deterministic under
// test).
//
// Dumping is strictly opt-in — no directory, no files — so embedding the
// attestation stack never writes to disk behind the caller's back.

// SetFlightDir sets the directory failure snapshots are written to (""
// disables dumping, the default). The directory is created on first dump.
func (t *Telemetry) SetFlightDir(dir string) {
	t.flightMu.Lock()
	defer t.flightMu.Unlock()
	t.flightDir = dir
}

// FlightDir returns the configured flight-recorder directory.
func (t *Telemetry) FlightDir() string {
	t.flightMu.Lock()
	defer t.flightMu.Unlock()
	return t.flightDir
}

// maxFlightDumps bounds the dumps of one trigger kept in a flight
// directory: a transport-fault storm across a swept fleet fails one
// session per node per sweep, and each failure would otherwise leave a
// file forever.
const maxFlightDumps = 32

// flightRings holds the process-wide dump ring of each trigger. One ring
// per trigger keeps availability noise from evicting security evidence:
// a storm of transport failures turns over only the transport dumps, never
// a rejected session's. One ring for every Telemetry bundle: two bundles
// pointed at the same directory (one fleet's sweeps plus one server's
// sessions, say) draw from one sequence per trigger and never clobber each
// other's post-mortems.
var flightRings sync.Map // trigger → *telemetry.FileRing

// flightRing returns the dump ring of trigger.
func flightRing(trigger string) *telemetry.FileRing {
	r, _ := flightRings.LoadOrStore(trigger, telemetry.NewFileRing("flight-", "-"+trigger+".jsonl", maxFlightDumps))
	return r.(*telemetry.FileRing)
}

// flightDump snapshots the journal to <dir>/flight-<seq>-<trigger>.jsonl,
// returning the path ("" when dumping is disabled), and then deletes the
// oldest dumps of trigger in dir beyond its newest maxFlightDumps. Each
// trigger numbers its own dumps, and the sequence continues past the
// highest one already in dir, so the dumps of a restarted process are
// never the oldest. The dump header records the
// trigger and the failing session's trace ID, so the file correlates
// directly with the span tree at /debug/traces. Dump failures are reported,
// never fatal: the attestation outcome stands regardless.
func (t *Telemetry) flightDump(trigger string, trace telemetry.TraceID) (string, error) {
	t.flightMu.Lock()
	dir := t.flightDir
	t.flightMu.Unlock()
	if dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("attest: flight dump: %w", err)
	}
	var path string
	err := flightRing(trigger).Write(dir, func(seq uint64) error {
		p := filepath.Join(dir, fmt.Sprintf("flight-%04d-%s.jsonl", seq, trigger))
		f, err := os.Create(p)
		if err != nil {
			return err
		}
		path = p
		header := trigger
		if trace != 0 {
			header = fmt.Sprintf("%s trace=%s", trigger, trace)
		}
		return errors.Join(t.Journal.Snapshot(f, header), f.Close())
	})
	if err != nil {
		return path, fmt.Errorf("attest: flight dump: %w", err)
	}
	return path, nil
}
