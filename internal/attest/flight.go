package attest

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pufatt/internal/telemetry"
)

// Flight-recorder dumps: when a session fails — the transport budget
// exhausts or the verifier rejects — the journal's recent history is the
// post-mortem, and it is worth nothing if the operator only thinks to fetch
// /debug/journal hours later, after the ring has turned over. With a flight
// directory configured, the failure handler snapshots the journal to a file
// at the moment of failure, named by a monotonic dump sequence and the
// trigger (never a timestamp: filenames stay deterministic under test).
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

// flightMu serialises dumps process-wide, and flightSeq is the dump
// sequence it guards. The sequence used to live per Telemetry bundle,
// which let two bundles pointed at the same directory (one fleet's sweeps
// plus one server's sessions, say) both write flight-0001-*.jsonl and
// silently clobber each other's post-mortems; a single counter makes every
// dump filename in the process unique.
var (
	flightMu  sync.Mutex
	flightSeq uint64
)

// maxFlightDumps bounds the dumps kept in a flight directory: a
// transport-fault storm across a swept fleet fails one session per node
// per sweep, and each failure would otherwise leave a file forever.
const maxFlightDumps = 32

// flightDump snapshots the journal to <dir>/flight-<seq>-<trigger>.jsonl,
// returning the path ("" when dumping is disabled), and then deletes the
// oldest dumps in dir beyond the newest maxFlightDumps. The sequence
// continues past the highest one already in dir, so the dumps of a
// restarted process are never the oldest. The dump header records the
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

	flightMu.Lock()
	defer flightMu.Unlock()
	old, perr := flightDumps(dir)
	if n := len(old); n > 0 && old[n-1].seq > flightSeq {
		flightSeq = old[n-1].seq
	}
	flightSeq++
	path := filepath.Join(dir, fmt.Sprintf("flight-%04d-%s.jsonl", flightSeq, trigger))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("attest: flight dump: %w", err)
	}
	header := trigger
	if trace != 0 {
		header = fmt.Sprintf("%s trace=%s", trigger, trace)
	}
	werr := t.Journal.Snapshot(f, header)
	cerr := f.Close()
	// Keep the newest maxFlightDumps, the one just written included.
	for _, d := range old[:max(0, len(old)+1-maxFlightDumps)] {
		if err := os.Remove(d.path); err != nil && !errors.Is(err, fs.ErrNotExist) && perr == nil {
			perr = err
		}
	}
	if err := errors.Join(werr, cerr, perr); err != nil {
		return path, fmt.Errorf("attest: flight dump: %w", err)
	}
	return path, nil
}

// flightDumpFile is one flight-<seq>-<trigger>.jsonl file in a directory.
type flightDumpFile struct {
	seq  uint64
	path string
}

// flightDumps lists dir's flight dumps, oldest (lowest sequence) first.
// Files that do not match the dump name pattern are not listed.
func flightDumps(dir string) ([]flightDumpFile, error) {
	entries, err := os.ReadDir(dir)
	var dumps []flightDumpFile
	for _, e := range entries {
		rest, ok := strings.CutPrefix(e.Name(), "flight-")
		num, _, cut := strings.Cut(rest, "-")
		if !ok || !cut || !strings.HasSuffix(rest, ".jsonl") {
			continue
		}
		if seq, perr := strconv.ParseUint(num, 10, 64); perr == nil {
			dumps = append(dumps, flightDumpFile{seq: seq, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(dumps, func(i, j int) bool { return dumps[i].seq < dumps[j].seq })
	return dumps, err
}
