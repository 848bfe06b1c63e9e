package attest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pufatt/internal/rng"
	"pufatt/internal/telemetry"
)

// This file is the deterministic fault-injection harness. Robustness code
// that is only exercised by real packet loss is untested code; every fault
// class the retry/quarantine machinery claims to survive is injectable here
// from a seed, so the tests replay identical fault schedules run after run.
//
// Two injectors cover the two transports:
//
//   - FaultyConn wraps a byte stream (net.Conn, net.Pipe) and injects at
//     write granularity. The codec emits each frame as a single Write, so a
//     write-level fault is exactly a frame-level fault.
//   - FaultyLink wraps an in-memory ProverAgent and injects on the
//     response path by round-tripping it through the real wire codec, so
//     corruption and truncation are detected by the same CRC/length checks
//     that guard the TCP path.

// FaultClass enumerates the injectable fault classes.
type FaultClass int

const (
	// FaultDrop swallows a frame entirely.
	FaultDrop FaultClass = iota
	// FaultCorrupt flips one bit somewhere in the frame.
	FaultCorrupt
	// FaultTruncate delivers only a prefix of the frame.
	FaultTruncate
	// FaultDelay delivers the frame late (past any deadline in force).
	FaultDelay
	// FaultDuplicate delivers the frame twice.
	FaultDuplicate
	// FaultJitter delivers the frame intact but late by JitterSeconds —
	// sub-deadline latency inflation, the overclocking/proxy-attack
	// signature: the session COMPLETES and the verifier sees the inflated
	// RTT, feeding the timing SLO instead of the transport-fault path.
	// (FaultDelay, by contrast, models a missed deadline: a transport
	// fault, no verdict.) New classes append here so existing seeds keep
	// their schedules — draw() consumes RNG only for configured classes.
	FaultJitter

	numFaultClasses
)

// String names the fault class.
func (c FaultClass) String() string {
	switch c {
	case FaultDrop:
		return "drop"
	case FaultCorrupt:
		return "corrupt"
	case FaultTruncate:
		return "truncate"
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	case FaultJitter:
		return "jitter"
	}
	return fmt.Sprintf("fault(%d)", int(c))
}

// FaultPlan sets the per-frame probability of each fault class (0..1; they
// are evaluated in declaration order and at most one fault fires per
// frame). The zero plan injects nothing.
type FaultPlan struct {
	Drop      float64
	Corrupt   float64
	Truncate  float64
	Delay     float64
	Duplicate float64
	Jitter    float64

	// DelaySeconds is the extra latency a FaultDelay imposes. FaultyConn
	// sleeps it in real time (the TCP deadlines are real); FaultyLink
	// models it on the simulated clock.
	DelaySeconds float64
	// JitterSeconds is the extra latency a FaultJitter adds to a delivered
	// response — enough to shift the RTT distribution, not enough (by
	// design of the plan) to miss the deadline. FaultyConn sleeps it;
	// FaultyLink adds it to the modelled compute time.
	JitterSeconds float64

	// MaxFaults, when positive, stops injecting after that many faults —
	// the transient-outage model, under which a retry budget eventually
	// wins. Zero means fault forever (the dead-link model).
	MaxFaults int
}

// prob returns the probability configured for class c.
func (p FaultPlan) prob(c FaultClass) float64 {
	switch c {
	case FaultDrop:
		return p.Drop
	case FaultCorrupt:
		return p.Corrupt
	case FaultTruncate:
		return p.Truncate
	case FaultDelay:
		return p.Delay
	case FaultDuplicate:
		return p.Duplicate
	case FaultJitter:
		return p.Jitter
	}
	return 0
}

// PlanFor returns a plan that always fires the single fault class c, for
// per-class tests. delaySeconds feeds DelaySeconds for FaultDelay and
// JitterSeconds for FaultJitter.
func PlanFor(c FaultClass, delaySeconds float64, maxFaults int) FaultPlan {
	p := FaultPlan{DelaySeconds: delaySeconds, MaxFaults: maxFaults}
	switch c {
	case FaultDrop:
		p.Drop = 1
	case FaultCorrupt:
		p.Corrupt = 1
	case FaultTruncate:
		p.Truncate = 1
	case FaultDelay:
		p.Delay = 1
	case FaultDuplicate:
		p.Duplicate = 1
	case FaultJitter:
		p.Jitter = 1
		p.JitterSeconds = delaySeconds
		p.DelaySeconds = 0
	}
	return p
}

// FaultEvent is the structured record emitted for every injected fault:
// one line of JSON naming the fault class, the schedule seed, and the
// 0-based frame index at which it fired. A fault-injection run is therefore
// replayable from its logs alone — the (seed, frame) pairs pin the entire
// schedule.
type FaultEvent struct {
	Event string `json:"event"` // always "fault_injected"
	Class string `json:"class"`
	Seed  uint64 `json:"seed"`
	Frame int    `json:"frame"`
	Total int    `json:"total"` // faults injected so far under this schedule
}

// faultState is the shared draw/accounting core of both injectors.
type faultState struct {
	mu       sync.Mutex
	plan     FaultPlan
	src      *rng.Source
	seed     uint64
	frames   int // frames drawn for so far (the event's frame index)
	injected int
	counts   [numFaultClasses]int
	log      io.Writer
	tel      *Telemetry // metric/journal sink; nil means the package default
}

// SetTelemetry directs the injector's fault metrics and journal events to
// an explicit telemetry bundle instead of the package default (nil
// restores the default). Promoted to FaultyConn and FaultyLink; tests with
// a private Telemetry use it so injected faults land in the same flight
// recorder as the sessions they break.
func (s *faultState) SetTelemetry(t *Telemetry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tel = t
}

// telemetry returns the injector's sink.
func (s *faultState) telemetry() *Telemetry {
	if s.tel != nil {
		return s.tel
	}
	return tel
}

func newFaultState(plan FaultPlan, seed uint64) *faultState {
	return &faultState{plan: plan, src: rng.New(seed).Sub("faults"), seed: seed}
}

// SetLog directs one-line JSON FaultEvent records to w on every injected
// fault (nil disables, the default). The method is promoted to FaultyConn
// and FaultyLink; injectors sharing one schedule share the sink.
func (s *faultState) SetLog(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = w
}

// draw decides the fault (if any) for the next frame. The RNG consumes one
// draw per configured class per frame whether or not it fires, so the
// schedule for frame n is independent of which faults fired before it.
func (s *faultState) draw() (FaultClass, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	frame := s.frames
	s.frames++
	if s.plan.MaxFaults > 0 && s.injected >= s.plan.MaxFaults {
		return 0, false
	}
	hit := false
	var class FaultClass
	for c := FaultDrop; c < numFaultClasses; c++ {
		p := s.plan.prob(c)
		if p <= 0 {
			continue
		}
		if u := s.src.Float64(); !hit && u < p {
			hit, class = true, c
		}
	}
	if hit {
		s.injected++
		s.counts[class]++
		T := s.telemetry()
		T.FaultsInjected.With(class.String()).Inc()
		T.journal(telemetry.EventFaultInjected, 0, 0, "",
			fmt.Sprintf("class=%s seed=%d frame=%d", class.String(), s.seed, frame))
		if s.log != nil {
			line, err := json.Marshal(FaultEvent{
				Event: "fault_injected", Class: class.String(),
				Seed: s.seed, Frame: frame, Total: s.injected,
			})
			if err == nil {
				line = append(line, '\n')
				s.log.Write(line) //nolint:errcheck // best-effort logging
			}
		}
	}
	return class, hit
}

// Counts reports how many faults of each class have been injected.
func (s *faultState) Counts() map[FaultClass]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[FaultClass]int, numFaultClasses)
	for c := FaultDrop; c < numFaultClasses; c++ {
		if s.counts[c] > 0 {
			out[c] = s.counts[c]
		}
	}
	return out
}

// Injected reports the total number of injected faults.
func (s *faultState) Injected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// FaultInjector owns a deterministic fault schedule that can span several
// connections: a retrying verifier redials after every fault, and the
// transient-outage model (MaxFaults) must keep counting across those
// redials for "the budget eventually wins" to be testable.
type FaultInjector struct{ state *faultState }

// NewFaultInjector creates a schedule from the plan under the given seed.
func NewFaultInjector(plan FaultPlan, seed uint64) *FaultInjector {
	return &FaultInjector{state: newFaultState(plan, seed)}
}

// Wrap attaches a stream to the schedule. All conns wrapped by one
// injector share its draw sequence and fault budget.
func (fi *FaultInjector) Wrap(rw io.ReadWriter) *FaultyConn {
	return &FaultyConn{rw: rw, faultState: fi.state}
}

// Counts reports how many faults of each class have been injected so far.
func (fi *FaultInjector) Counts() map[FaultClass]int { return fi.state.Counts() }

// SetLog directs one-line JSON FaultEvent records to w on every injected
// fault across all conns sharing this schedule (nil disables).
func (fi *FaultInjector) SetLog(w io.Writer) { fi.state.SetLog(w) }

// Injected reports the total number of injected faults so far.
func (fi *FaultInjector) Injected() int { return fi.state.Injected() }

// FaultyConn wraps a byte stream and injects frame-granular faults on
// writes, under a seeded deterministic schedule. Reads pass through
// untouched (wrap both ends to model a bidirectionally lossy link). It is
// safe for the usual one-reader/one-writer connection discipline, and
// implements net.Conn when wrapping one (deadline and address calls are
// forwarded; on a bare io.ReadWriter they are no-ops).
type FaultyConn struct {
	rw io.ReadWriter
	*faultState

	jmu         sync.Mutex
	injectedRTT float64
}

// NewFaultyConn wraps rw with a fresh single-connection fault schedule.
// Use a FaultInjector to share one schedule across redials.
func NewFaultyConn(rw io.ReadWriter, plan FaultPlan, seed uint64) *FaultyConn {
	return NewFaultInjector(plan, seed).Wrap(rw)
}

// Read passes through to the wrapped stream.
func (f *FaultyConn) Read(p []byte) (int, error) { return f.rw.Read(p) }

// Write delivers, mangles, or swallows one frame according to the schedule.
// Faults lie about success (returning len(p), as a lossy link does): the
// sender learns of the fault only through the peer's silence or complaint.
func (f *FaultyConn) Write(p []byte) (int, error) {
	class, hit := f.draw()
	if !hit {
		return f.rw.Write(p)
	}
	switch class {
	case FaultDrop:
		return len(p), nil
	case FaultCorrupt:
		// Flip one bit of the frame copy; never the original buffer.
		c := make([]byte, len(p))
		copy(c, p)
		if len(c) > 0 {
			bit := f.pick(len(c) * 8)
			c[bit/8] ^= 1 << (bit % 8)
		}
		if _, err := f.rw.Write(c); err != nil {
			return 0, err
		}
		return len(p), nil
	case FaultTruncate:
		n := len(p) / 2
		if _, err := f.rw.Write(p[:n]); err != nil {
			return 0, err
		}
		// A truncated frame leaves the peer mid-ReadFull; close the
		// stream (when possible) so the fault surfaces as an immediate
		// ErrUnexpectedEOF instead of a deadline expiry.
		if c, ok := f.rw.(io.Closer); ok {
			_ = c.Close()
		}
		return len(p), nil
	case FaultDelay:
		time.Sleep(time.Duration(f.delaySeconds() * float64(time.Second)))
		if _, err := f.rw.Write(p); err != nil {
			return 0, err
		}
		return len(p), nil
	case FaultDuplicate:
		if _, err := f.rw.Write(p); err != nil {
			return 0, err
		}
		if _, err := f.rw.Write(p); err != nil {
			return 0, err
		}
		return len(p), nil
	case FaultJitter:
		// Intact but late — and (unlike FaultDelay) meant to stay inside
		// the deadline, so the frame verifies with an inflated RTT. The
		// sleep models the wire, but the timing decision runs on the
		// *simulated* clock (see the timing note in tcp.go), so the added
		// latency is also recorded for InjectedRTTSeconds.
		jit := f.jitterSeconds()
		time.Sleep(time.Duration(jit * float64(time.Second)))
		f.recordInjectedRTT(jit)
		if _, err := f.rw.Write(p); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return f.rw.Write(p)
}

// recordInjectedRTT accumulates simulated-clock latency added by jitter
// faults on this connection.
func (f *FaultyConn) recordInjectedRTT(s float64) {
	f.jmu.Lock()
	f.injectedRTT += s
	f.jmu.Unlock()
}

// InjectedRTTSeconds reports the simulated-clock latency that jitter
// faults have added on this connection. The verifier's timing decision is
// modelled, not wall-clock (see the timing note in tcp.go), so the TCP
// request path asks the conn for this value and folds it into the
// session's elapsed time — that is what makes a jittered-but-complete
// session rejectable on the time bound over a real transport, exactly as
// FaultyLink's `compute + JitterSeconds` does in process.
func (f *FaultyConn) InjectedRTTSeconds() float64 {
	f.jmu.Lock()
	defer f.jmu.Unlock()
	return f.injectedRTT
}

// Close closes the wrapped stream if it is closeable.
func (f *FaultyConn) Close() error {
	if c, ok := f.rw.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// net.Conn forwarding, so a wrapped net.Conn still honours deadlines (the
// retry machinery depends on them to bound a dropped frame's cost).

// LocalAddr forwards to the wrapped net.Conn (nil otherwise).
func (f *FaultyConn) LocalAddr() net.Addr {
	if nc, ok := f.rw.(net.Conn); ok {
		return nc.LocalAddr()
	}
	return nil
}

// RemoteAddr forwards to the wrapped net.Conn (nil otherwise).
func (f *FaultyConn) RemoteAddr() net.Addr {
	if nc, ok := f.rw.(net.Conn); ok {
		return nc.RemoteAddr()
	}
	return nil
}

// SetDeadline forwards to the wrapped net.Conn (no-op otherwise).
func (f *FaultyConn) SetDeadline(t time.Time) error {
	if nc, ok := f.rw.(net.Conn); ok {
		return nc.SetDeadline(t)
	}
	return nil
}

// SetReadDeadline forwards to the wrapped net.Conn (no-op otherwise).
func (f *FaultyConn) SetReadDeadline(t time.Time) error {
	if nc, ok := f.rw.(net.Conn); ok {
		return nc.SetReadDeadline(t)
	}
	return nil
}

// SetWriteDeadline forwards to the wrapped net.Conn (no-op otherwise).
func (f *FaultyConn) SetWriteDeadline(t time.Time) error {
	if nc, ok := f.rw.(net.Conn); ok {
		return nc.SetWriteDeadline(t)
	}
	return nil
}

// pick draws a deterministic index in [0, n).
func (f *FaultyConn) pick(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.src.Intn(n)
}

func (f *FaultyConn) delaySeconds() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.plan.DelaySeconds
}

func (f *FaultyConn) jitterSeconds() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.plan.JitterSeconds
}

// FaultyLink wraps an in-memory ProverAgent with a faulty last hop, for the
// simulated-clock paths (RunSession, Fleet.Sweep). Response frames pass
// through the real wire codec with faults applied to the bytes, so every
// fault is detected — and classified as transport — by exactly the checks
// that guard the TCP path:
//
//	drop      → ErrLinkDrop
//	corrupt   → ErrChecksum (CRC32 catches the flipped bit)
//	truncate  → io.ErrUnexpectedEOF
//	delay     → ErrLinkTimeout (the frame exists but missed its deadline)
//	duplicate → ErrStaleFrame (the replayed copy desyncs the stream)
//	jitter    → no error: the response arrives intact with JitterSeconds
//	            added to its modelled compute time, so the verifier sees
//	            an inflated RTT (and rejects on the time bound only when
//	            the inflation actually exceeds δ)
type FaultyLink struct {
	agent ProverAgent
	*faultState
}

// NewFaultyLink wraps agent with the fault plan under the given seed.
func NewFaultyLink(agent ProverAgent, plan FaultPlan, seed uint64) *FaultyLink {
	return &FaultyLink{agent: agent, faultState: newFaultState(plan, seed)}
}

// Respond answers the challenge through the faulty hop.
func (l *FaultyLink) Respond(ch Challenge) (Response, float64, error) {
	class, hit := l.draw()
	if !hit {
		return l.agent.Respond(ch)
	}
	switch class {
	case FaultDrop:
		return Response{}, 0, Transport(ErrLinkDrop)
	case FaultDelay:
		return Response{}, 0, Transport(fmt.Errorf("%w: +%.3gs", ErrLinkTimeout, l.plan.DelaySeconds))
	case FaultDuplicate:
		return Response{}, 0, Transport(ErrStaleFrame)
	case FaultJitter:
		resp, compute, err := l.agent.Respond(ch)
		if err != nil {
			return resp, compute, err
		}
		return resp, compute + l.plan.JitterSeconds, nil
	}
	resp, compute, err := l.agent.Respond(ch)
	if err != nil {
		return resp, compute, err
	}
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		return Response{}, 0, err
	}
	frame := buf.Bytes()
	switch class {
	case FaultCorrupt:
		bit := l.pickIndex(len(frame) * 8)
		frame[bit/8] ^= 1 << (bit % 8)
	case FaultTruncate:
		frame = frame[:len(frame)/2]
	}
	got, err := ReadResponse(bytes.NewReader(frame))
	if err != nil {
		return Response{}, 0, Transport(err)
	}
	return got, compute, nil
}

// pickIndex draws a deterministic index in [0, n).
func (l *FaultyLink) pickIndex(n int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.src.Intn(n)
}
