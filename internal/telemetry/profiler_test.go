package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestProfiler returns a profiler writing into a temp dir with the CPU
// leg shrunk to a sliver: the snapshot legs are what the ring semantics
// tests exercise, and a 250 ms sleep per capture would dominate the suite.
func newTestProfiler(t *testing.T) (*Profiler, string) {
	t.Helper()
	p := NewProfiler()
	dir := t.TempDir()
	p.SetDir(dir)
	p.SetCPUDuration(time.Millisecond)
	p.SetClock(func() time.Time { return time.Unix(90000, 0) })
	return p, dir
}

func TestProfilerDisabledWithoutDir(t *testing.T) {
	p := NewProfiler()
	if p.Enabled() {
		t.Fatal("profiler enabled with no directory")
	}
	if _, ok, err := p.Capture("manual", CaptureMeta{}); ok || err != nil {
		t.Fatalf("disabled capture: ok=%v err=%v, want ok=false err=nil", ok, err)
	}
	if n := len(p.Snapshot()); n != 0 {
		t.Fatalf("disabled profiler retained %d captures", n)
	}
}

func TestProfilerCaptureWritesRingAndIndex(t *testing.T) {
	p, dir := newTestProfiler(t)
	entry, ok, err := p.Capture("rtt-p95-burn", CaptureMeta{Alert: "rtt-p95-burn", Trace: TraceID(0xabc)})
	if err != nil || !ok {
		t.Fatalf("capture: ok=%v err=%v", ok, err)
	}
	if entry.Trigger != "rtt-p95-burn" || entry.Alert != "rtt-p95-burn" {
		t.Fatalf("capture metadata: %+v", entry)
	}
	if entry.Trace != TraceID(0xabc).String() {
		t.Fatalf("capture trace = %q, want %s", entry.Trace, TraceID(0xabc))
	}
	// All four legs must be on disk, named by sequence and trigger, and
	// non-empty (WriteTo at debug=0 emits gzipped protobuf).
	if len(entry.Files) != 4 {
		t.Fatalf("capture wrote %d files (%v), skipped %v", len(entry.Files), entry.Files, entry.Skipped)
	}
	for _, f := range entry.Files {
		if !strings.Contains(f, "rtt-p95-burn") || !strings.HasSuffix(f, ".pb.gz") {
			t.Errorf("capture filename %q: want trigger-tagged .pb.gz", f)
		}
		fi, serr := os.Stat(filepath.Join(dir, f))
		if serr != nil || fi.Size() == 0 {
			t.Errorf("capture file %s: stat err=%v empty=%v", f, serr, serr == nil && fi.Size() == 0)
		}
	}
	if entry.UnixNano != time.Unix(90000, 0).UnixNano() {
		t.Fatalf("capture timestamp = %d, want injected clock", entry.UnixNano)
	}

	// The sidecar index serves the same entry, newest first, as JSON.
	var sb strings.Builder
	if err := WriteJSON(&sb, p.Recent(0)); err != nil {
		t.Fatal(err)
	}
	var decoded []ProfileCapture
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("index not JSON: %v\n%s", err, sb.String())
	}
	if len(decoded) != 1 || decoded[0].Seq != entry.Seq || decoded[0].Alert != "rtt-p95-burn" {
		t.Fatalf("index = %+v, want the capture entry", decoded)
	}
}

func TestProfilerRingEvictsOldestFiles(t *testing.T) {
	p, dir := newTestProfiler(t)
	p.SetCPUDuration(-1) // snapshot legs only: 3 files per capture
	const n = DefaultProfileCapacity + 2
	var first ProfileCapture
	for i := 0; i < n; i++ {
		e, ok, err := p.Capture(fmt.Sprintf("t%d", i), CaptureMeta{})
		if err != nil || !ok {
			t.Fatalf("capture %d: ok=%v err=%v", i, ok, err)
		}
		if i == 0 {
			first = e
		}
	}
	snap := p.Snapshot()
	if len(snap) != DefaultProfileCapacity {
		t.Fatalf("ring holds %d captures, want %d", len(snap), DefaultProfileCapacity)
	}
	if snap[0].Trigger != "t2" || snap[len(snap)-1].Trigger != fmt.Sprintf("t%d", n-1) {
		t.Fatalf("ring kept %s..%s — want the newest %d", snap[0].Trigger, snap[len(snap)-1].Trigger, DefaultProfileCapacity)
	}
	// Evicted captures take their files with them; survivors keep theirs.
	for _, f := range first.Files {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Errorf("evicted file %s still on disk (err=%v)", f, err)
		}
	}
	for _, f := range snap[len(snap)-1].Files {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("retained file %s: %v", f, err)
		}
	}
}

// profileSeqsOnDisk returns the distinct capture sequence numbers of the
// profile-<seq>-*.pb.gz files in dir, ascending.
func profileSeqsOnDisk(t *testing.T, dir string) []uint64 {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "profile-*.pb.gz"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, f := range files {
		num, _, _ := strings.Cut(strings.TrimPrefix(filepath.Base(f), "profile-"), "-")
		seq, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			t.Fatalf("capture file %s: %v", f, err)
		}
		seen[seq] = true
	}
	seqs := make([]uint64, 0, len(seen))
	for seq := range seen {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// TestProfilerRingContinuesPastEarlierRun: a capture directory left by an
// earlier process, at sequence numbers above any this one has drawn, is
// continued, not overwritten, and pruned like this run's own captures.
func TestProfilerRingContinuesPastEarlierRun(t *testing.T) {
	p, dir := newTestProfiler(t)
	p.SetCPUDuration(-1)
	const leftover = 900000
	for i := 0; i < DefaultProfileCapacity; i++ {
		for _, kind := range []string{"heap", "goroutine", "mutex"} {
			name := fmt.Sprintf("profile-%04d-periodic.%s.pb.gz", leftover+i, kind)
			if err := os.WriteFile(filepath.Join(dir, name), []byte("earlier run"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "profile-notes.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	newest := uint64(leftover + DefaultProfileCapacity - 1)
	for i := 0; i <= DefaultProfileCapacity; i++ {
		e, ok, err := p.Capture("periodic", CaptureMeta{})
		if err != nil || !ok {
			t.Fatalf("capture %d: ok=%v err=%v", i, ok, err)
		}
		if e.Seq <= newest {
			t.Fatalf("capture %d: seq %d, want past %d", i, e.Seq, newest)
		}
		newest = e.Seq
		seqs := profileSeqsOnDisk(t, dir)
		if len(seqs) > DefaultProfileCapacity {
			t.Fatalf("capture %d: %d captures on disk, want at most %d", i, len(seqs), DefaultProfileCapacity)
		}
		if seqs[len(seqs)-1] != e.Seq {
			t.Fatalf("capture %d: newest on disk %d, want %d", i, seqs[len(seqs)-1], e.Seq)
		}
	}
	if seqs := profileSeqsOnDisk(t, dir); seqs[0] < leftover+DefaultProfileCapacity {
		t.Fatalf("earlier run's capture %d survived %d new ones", seqs[0], DefaultProfileCapacity+1)
	}
	if _, err := os.Stat(filepath.Join(dir, "profile-notes.txt")); err != nil {
		t.Fatalf("non-capture file removed: %v", err)
	}
}

// TestProfilerSingleFlight hammers Capture from many goroutines: with the
// CPU leg sleeping, at most one capture can be in flight, every other
// trigger must be refused — and the sum must balance. Run under
// -race this is also the concurrency soak for the index and counters.
func TestProfilerSingleFlight(t *testing.T) {
	p, _ := newTestProfiler(t)
	reg := NewRegistry()
	captures := reg.CounterVec("test_profile_captures_total", "captures", "trigger")
	p.SetCaptureCounters(captures)
	p.SetCPUDuration(5 * time.Millisecond) // hold the flight long enough to collide

	const workers = 8
	const rounds = 4
	var wg sync.WaitGroup
	var okCount, dropCount sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				_, ok, err := p.Capture("hammer", CaptureMeta{})
				if err != nil {
					t.Errorf("capture: %v", err)
					return
				}
				if ok {
					okCount.Store(fmt.Sprintf("%d/%d", w, r), true)
				} else {
					dropCount.Store(fmt.Sprintf("%d/%d", w, r), true)
				}
			}
		}(w)
	}
	wg.Wait()

	oks, drops := 0, 0
	okCount.Range(func(_, _ any) bool { oks++; return true })
	dropCount.Range(func(_, _ any) bool { drops++; return true })
	if oks == 0 {
		t.Fatal("no capture ever won the single-flight race")
	}
	if oks+drops != workers*rounds {
		t.Fatalf("outcomes %d+%d != %d attempts", oks, drops, workers*rounds)
	}
	if got := captures.With("hammer").Value(); got != uint64(oks) {
		t.Fatalf("captures counter = %d, want %d", got, oks)
	}
	if got := len(p.Snapshot()); got > DefaultProfileCapacity {
		t.Fatalf("ring grew past capacity: %d", got)
	}
}

func TestSanitizeTrigger(t *testing.T) {
	for in, want := range map[string]string{
		"":                "manual",
		"rtt-p95-burn":    "rtt-p95-burn",
		"weird name/../x": "weird_name_.._x", // slashes die; dots are filename-safe mid-name
	} {
		if got := sanitizeTrigger(in); got != want {
			t.Errorf("sanitizeTrigger(%q) = %q, want %q", in, got, want)
		}
	}
}
