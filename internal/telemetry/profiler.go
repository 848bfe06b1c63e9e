package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Continuous profiling: the flight recorder answers "what happened on the
// wire", the trace ring answers "where did the session's time go" — the
// Profiler answers "what was the PROCESS doing when the spike hit". It
// keeps a bounded on-disk ring of pprof captures (CPU, heap, goroutine,
// mutex), written either on a low-duty-cycle timer or when a burn-rate
// alert fires, and a sidecar index correlating each capture with its
// trigger, the firing alert, and a trace ID — so /debug/profiles, /alerts,
// and /debug/traces cross-reference the same incident.
//
// Like the flight recorder, capturing is strictly opt-in (no directory, no
// files) and never fatal: a failed profile write is reported in the index,
// not allowed to disturb the attestation path it is observing.

// profileFiles is the process-wide capture ring: every Profiler draws its
// sequence from it, so two profilers pointed at one directory never
// collide on a filename, and a capture directory left by an earlier
// process is continued and pruned rather than overwritten. Writes through
// it are serialised, so two profilers' CPU legs never overlap (the runtime
// supports one active CPU profile); a CPU profile started outside the
// profilers, such as a test binary's -cpuprofile, fails the CPU leg into
// the entry's Skipped list.
var profileFiles = NewFileRing("profile-", ".pb.gz", DefaultProfileCapacity)

// DefaultProfileCapacity bounds the captures kept in a capture directory
// and in the sidecar index.
const DefaultProfileCapacity = 8

// DefaultCPUProfileDuration is the CPU window captured per trigger: long
// enough to catch a culprit mid-spike, short enough that the periodic
// low-duty-cycle capture costs well under 1% CPU at the default interval.
const DefaultCPUProfileDuration = 250 * time.Millisecond

// DefaultProfileInterval is the periodic capture cadence (250 ms of CPU
// profiling per minute ≈ 0.4% duty cycle).
const DefaultProfileInterval = time.Minute

// profileKinds are the pprof legs of one capture, in file order. "cpu" is
// handled specially (StartCPUProfile); the rest are runtime profile dumps.
var profileKinds = []string{"cpu", "heap", "goroutine", "mutex"}

// CaptureMeta carries the incident context an alert-triggered capture
// records into the sidecar index.
type CaptureMeta struct {
	// Alert is the firing burn-rate alert's rule name ("" for periodic and
	// manual captures).
	Alert string
	// Trace is the trace ID most relevant to the trigger — typically the
	// rule metric's latest windowed exemplar — so the capture links to a
	// span tree at /debug/traces.
	Trace TraceID
}

// ProfileCapture is one sidecar-index entry: the capture's sequence,
// trigger, incident metadata, and the files it wrote.
type ProfileCapture struct {
	Seq     uint64   `json:"seq"`
	Trigger string   `json:"trigger"`
	Alert   string   `json:"alert,omitempty"`
	Trace   string   `json:"trace,omitempty"`
	Files   []string `json:"files"`
	// Skipped lists profile legs that could not be captured (e.g. the CPU
	// profiler was already running) — partial evidence, loudly labeled.
	Skipped  []string `json:"skipped,omitempty"`
	UnixNano int64    `json:"unix_ns"`
}

// Profiler is the bounded on-disk profile ring. All methods are safe for
// concurrent use; captures are single-flight (a trigger arriving while a
// capture is in progress is counted and dropped, never stacked).
type Profiler struct {
	mu     sync.Mutex
	dir    string
	cpuDur time.Duration
	clock  func() time.Time
	index  []ProfileCapture // oldest first

	inflight atomic.Bool

	captures atomic.Pointer[CounterVec] // by trigger
}

// NewProfiler builds a disabled profiler (no directory). Configure with
// SetDir and SetCPUDuration; attach counters with SetCaptureCounters.
func NewProfiler() *Profiler {
	return &Profiler{cpuDur: DefaultCPUProfileDuration, clock: time.Now}
}

// SetDir sets the capture directory ("" disables capturing, the default).
// The directory is created on first capture.
func (p *Profiler) SetDir(dir string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dir = dir
}

// Dir returns the configured capture directory.
func (p *Profiler) Dir() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dir
}

// SetCPUDuration sets the CPU profile window per capture. Zero restores
// DefaultCPUProfileDuration; negative skips the CPU leg entirely (the
// snapshot legs — heap, goroutine, mutex — still capture).
func (p *Profiler) SetCPUDuration(d time.Duration) {
	if d == 0 {
		d = DefaultCPUProfileDuration
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cpuDur = d
}

// SetClock injects the index timestamp clock (nil restores time.Now). The
// capture FILENAMES never use the clock — they are sequence-numbered, so
// they stay deterministic under test regardless.
func (p *Profiler) SetClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clock = now
}

// SetCaptureCounters attaches the counter of completed captures by trigger
// (nil detaches it). The profiler cannot self-register (it may outlive any
// one registry), so the owning telemetry bundle attaches it — the same
// contract as Tracer.SetDropCounter.
func (p *Profiler) SetCaptureCounters(captures *CounterVec) {
	p.captures.Store(captures)
}

// Enabled reports whether a capture directory is configured.
func (p *Profiler) Enabled() bool { return p.Dir() != "" }

// Capture runs one profile capture named by trigger. It returns ok=false
// without error when capturing is disabled (no directory) or suppressed by
// the single-flight guard (another capture is in progress — CPU profiles
// must never stack). Partial failures are recorded in the entry's Skipped
// list, not returned: evidence collection must not fail the caller.
func (p *Profiler) Capture(trigger string, meta CaptureMeta) (ProfileCapture, bool, error) {
	p.mu.Lock()
	dir := p.dir
	cpuDur := p.cpuDur
	now := p.clock
	p.mu.Unlock()
	if dir == "" {
		return ProfileCapture{}, false, nil
	}
	if !p.inflight.CompareAndSwap(false, true) {
		return ProfileCapture{}, false, nil
	}
	defer p.inflight.Store(false)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ProfileCapture{}, false, fmt.Errorf("telemetry: profile capture: %w", err)
	}
	entry := ProfileCapture{Trigger: trigger, Alert: meta.Alert, Files: []string{}, UnixNano: now().UnixNano()}
	if meta.Trace != 0 {
		entry.Trace = meta.Trace.String()
	}
	// The capture's own failures land in entry.Skipped; a failed prune of
	// an older capture leaves extra files behind, never a failed capture.
	_ = profileFiles.Write(dir, func(seq uint64) error {
		entry.Seq = seq
		for _, kind := range profileKinds {
			path := filepath.Join(dir, fmt.Sprintf("profile-%04d-%s.%s.pb.gz", seq, sanitizeTrigger(trigger), kind))
			if err := captureKind(kind, path, cpuDur); err != nil {
				entry.Skipped = append(entry.Skipped, fmt.Sprintf("%s: %v", kind, err))
				_ = os.Remove(path)
				continue
			}
			entry.Files = append(entry.Files, filepath.Base(path))
		}
		return nil
	})

	p.mu.Lock()
	p.index = append(p.index, entry)
	if n := len(p.index) - DefaultProfileCapacity; n > 0 {
		p.index = append(p.index[:0], p.index[n:]...)
	}
	p.mu.Unlock()

	if cv := p.captures.Load(); cv != nil {
		cv.With(trigger).Inc()
	}
	return entry, true, nil
}

// captureKind writes one profile leg to path. CPU profiles run for cpuDur
// (non-positive skips); the snapshot kinds dump the runtime profile at
// debug=0, which is already gzip-compressed protobuf (.pb.gz).
func captureKind(kind, path string, cpuDur time.Duration) error {
	if kind == "cpu" {
		if cpuDur < 0 {
			return fmt.Errorf("cpu profiling disabled")
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return err
		}
		if cpuDur > 0 {
			time.Sleep(cpuDur)
		}
		pprof.StopCPUProfile()
		return f.Close()
	}
	prof := pprof.Lookup(kind)
	if prof == nil {
		return fmt.Errorf("unknown profile %q", kind)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := prof.WriteTo(f, 0)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// sanitizeTrigger maps a trigger name onto the filename-safe alphabet the
// flight recorder uses (alert rule names are already kebab-case; anything
// else degrades to '_').
func sanitizeTrigger(s string) string {
	if s == "" {
		return "manual"
	}
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Snapshot returns the retained captures, oldest first.
func (p *Profiler) Snapshot() []ProfileCapture {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]ProfileCapture(nil), p.index...)
}

// Start captures with trigger "periodic" every interval (non-positive
// means DefaultProfileInterval) until the returned stop function is
// called. The single-flight guard makes the periodic cycle yield to
// alert-triggered captures rather than stack on them.
func (p *Profiler) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = DefaultProfileInterval
	}
	return Every(interval, func() { _, _, _ = p.Capture("periodic", CaptureMeta{}) })
}

// Recent returns the sidecar index newest first — the /debug/profiles
// body; limit > 0 keeps only the newest limit entries.
func (p *Profiler) Recent(limit int) []ProfileCapture {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ProfileCapture, 0, len(p.index))
	for i := len(p.index) - 1; i >= 0 && (limit <= 0 || len(out) < limit); i-- {
		out = append(out, p.index[i])
	}
	return out
}
