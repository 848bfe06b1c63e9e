package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"pufatt/internal/attest"
	"pufatt/internal/attest/cluster"
	"pufatt/internal/core"
	"pufatt/internal/mcu"
)

// The traced run wraps the seams the system already exposes — the prover
// agent, the MCU's PUF port, the verifier's reference source, the seed
// budget and the client's net.Conn — and records one span per call. No span
// is added inside the program itself, so the traced run measures the same
// code the untraced run does, plus the wrappers.

// spanName identifies a layer. The names are the module names the per-layer
// metrics use.
type spanName uint8

const (
	spanVerifier  spanName = iota // attest.verifier: one attestation op (root)
	spanPair                      // experiments.pair: one figures op (root)
	spanProver                    // attest.prover: the prover agent's Respond
	spanCPU                       // mcu.cpu: the simulated CPU run inside the prover
	spanFeed                      // mcu.feed: one PUF-mode add (PUFPort.Feed)
	spanFinish                    // mcu.finish: one pend (PUFPort.Finish)
	spanReference                 // core.reference: one ReferenceSource lookup
	spanWire                      // attest.wire: one client Read or Write
	spanAdmit                     // cluster.admit: op start to the first seed claim
	spanClaim                     // cluster.claim: one replicated seed claim
	spanFigure3                   // experiments.figure3: one Figure3 call
	spanFigure4                   // experiments.figure4: one Figure4 call
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"attest.verifier", "experiments.pair", "attest.prover", "mcu.cpu", "mcu.feed",
	"mcu.finish", "core.reference", "attest.wire", "cluster.admit", "cluster.claim",
	"experiments.figure3", "experiments.figure4",
}

func (n spanName) String() string { return spanNames[n] }

// span is one recorded interval, in nanoseconds since the tracer started.
// child accumulates the durations of the span's children, so self time is
// end - start - child.
type span struct {
	start, end, child int64
	op                int32
	parent            int32 // index of the parent span, -1 for an op root
	name              spanName
}

// tracer keeps every span of the run in memory; they are aggregated, and
// optionally written as JSONL, when the run ends. One mutex guards all
// scopes: the verifier workload's server goroutine records into the
// client's scope.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// calls counts every wrapped call since the timed phase began, traced
	// op or not, so per-op counts are exact; wireBytes counts the client's
	// bytes read and written the same way.
	calls     [numSpanNames]int64
	wireBytes int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// push opens a span under parent. Callers hold t.mu.
func (t *tracer) push(name spanName, op, parent int32) int32 {
	t.spans = append(t.spans, span{start: t.now(), op: op, parent: parent, name: name})
	return int32(len(t.spans) - 1)
}

// pop closes a span and charges its duration to its parent. Callers hold
// t.mu.
func (t *tracer) pop(id int32) {
	sp := &t.spans[id]
	sp.end = t.now()
	if sp.parent >= 0 {
		t.spans[sp.parent].child += sp.end - sp.start
	}
}

// scope is one client's view of the tracer: the op it is running and the
// span currently open. A client runs one op at a time and every device is
// served by exactly one client, so the wrappers of a device record into its
// client's scope. All fields are guarded by tr.mu. A nil scope — what
// untraced runs use — records nothing.
type scope struct {
	tr    *tracer
	op    int32
	root  int32 // -1 while the current op is untraced
	cur   int32
	admit bool // cluster.admit already recorded for this op
}

func newScope(tr *tracer) *scope { return &scope{tr: tr, root: -1, cur: -1} }

// begin starts op. An untraced op records nothing; its wrappers still run.
func (s *scope) begin(name spanName, op int, traced bool) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.root, s.cur, s.admit = -1, -1, false
	if traced {
		s.op = int32(op)
		s.root = s.tr.push(name, s.op, -1)
		s.cur = s.root
	}
}

// finish ends the current op.
func (s *scope) finish() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.root >= 0 {
		s.tr.pop(s.root)
	}
	s.root, s.cur = -1, -1
}

// open starts a span that later spans on this scope nest under.
func (s *scope) open(name spanName) int32 {
	if s == nil {
		return -1
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.tr.calls[name]++
	if s.cur < 0 {
		return -1
	}
	s.cur = s.tr.push(name, s.op, s.cur)
	return s.cur
}

// close ends a span started by open.
func (s *scope) close(id int32) {
	if id < 0 {
		return
	}
	s.closeWire(id, 0)
}

// closeWire ends a span started by open and counts n bytes moved on the
// wire.
func (s *scope) closeWire(id int32, n int) {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.tr.wireBytes += int64(n)
	if id >= 0 {
		s.tr.pop(id)
		s.cur = s.tr.spans[id].parent
	}
}

// leaf starts a span nothing nests under; it may be ended from another
// goroutine than the one the scope's op runs on.
func (s *scope) leaf(name spanName) int32 {
	if s == nil {
		return -1
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.tr.calls[name]++
	if s.cur < 0 {
		return -1
	}
	return s.tr.push(name, s.op, s.cur)
}

// end ends a span started by leaf.
func (s *scope) end(id int32) {
	if id < 0 {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.tr.pop(id)
}

// admitted records cluster.admit — the interval from the op's start to now
// — the first time the op reaches a seed claim.
func (s *scope) admitted() {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.root < 0 || s.admit {
		return
	}
	s.admit = true
	id := s.tr.push(spanAdmit, s.op, s.root)
	s.tr.spans[id].start = s.tr.spans[s.root].start
	s.tr.pop(id)
}

// resetCounts starts the call and byte counts over; the timed phase calls
// it first.
func (t *tracer) resetCounts() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls, t.wireBytes = [numSpanNames]int64{}, 0
}

// counts reports the wrapped calls per layer and the wire bytes since
// resetCounts.
func (t *tracer) counts() ([numSpanNames]int64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls, t.wireBytes
}

// layerStat aggregates one span name over the traced ops.
type layerStat struct {
	total, self int64 // nanoseconds
	count       int
}

// layers aggregates the recorded spans by name.
func (t *tracer) layers() [numSpanNames]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [numSpanNames]layerStat
	for _, sp := range t.spans {
		d := sp.end - sp.start
		st := &out[sp.name]
		st.total += d
		st.self += d - sp.child
		st.count++
	}
	return out
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i, sp := range t.spans {
		if err := enc.Encode(struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Op      int32  `json:"op"`
			Parent  int32  `json:"parent"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{i, sp.name.String(), sp.op, sp.parent, sp.start, sp.end}); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- wrappers around the system's existing seams ---

// tracedSource times the verifier's reference lookups.
type tracedSource struct {
	core.ReferenceSource
	sc *scope
}

func (r tracedSource) ReferenceResponse(seed uint64, j int) ([]uint8, error) {
	id := r.sc.leaf(spanReference)
	defer r.sc.end(id)
	return r.ReferenceSource.ReferenceResponse(seed, j)
}

// referenceSource returns the verifier's reference source for a device:
// its emulator, wrapped when the run is traced.
func referenceSource(dev *core.Device, sc *scope) core.ReferenceSource {
	if sc == nil {
		return dev.Emulator()
	}
	return tracedSource{dev.Emulator(), sc}
}

// tracedPort times the MCU's PUF-mode instructions.
type tracedPort struct {
	mcu.PUFPort
	sc *scope
}

func (p tracedPort) Feed(a, b uint32) (uint64, error) {
	id := p.sc.leaf(spanFeed)
	defer p.sc.end(id)
	return p.PUFPort.Feed(a, b)
}

func (p tracedPort) Finish() (uint32, error) {
	id := p.sc.leaf(spanFinish)
	defer p.sc.end(id)
	return p.PUFPort.Finish()
}

// respondTraced is attest.Prover.Respond rebuilt from the prover's public
// parts around a tracedPort, so the prover's time splits into the CPU and
// its PUF port. Its responses are the ones Respond gives; the pinned digests
// hold the two paths to that.
func respondTraced(p *attest.Prover, sc *scope, ch attest.Challenge) (attest.Response, float64, error) {
	p.Port.SetClock(p.FreqHz)
	p.Image.Layout.SetNonce(p.Image.Mem, ch.EffectiveNonce())
	cpu := mcu.New(p.Image.Mem, p.FreqHz, tracedPort{p.Port, sc})
	id := sc.open(spanCPU)
	err := cpu.Run(p.MaxCycles)
	sc.close(id)
	if err != nil {
		return attest.Response{}, 0, fmt.Errorf("prover run: %w", err)
	}
	return attest.Response{
		Session: ch.Session,
		Tag:     p.Image.Layout.ReadResult(p.Image.Mem),
		Helpers: p.Port.DrainHelpers(),
		Epoch:   p.Port.Device().Epoch(),
	}, cpu.TimeSeconds(), nil
}

// tracedBudget times the cluster's replicated seed claims and marks the end
// of admission.
type tracedBudget struct {
	*cluster.Group
	sc *scope
}

func (b tracedBudget) NextUnusedWithEpoch() (uint64, uint32, error) {
	b.sc.admitted()
	id := b.sc.leaf(spanClaim)
	defer b.sc.end(id)
	return b.Group.NextUnusedWithEpoch()
}

// seedBudget returns a device's seed budget: its replication group, wrapped
// when the run is traced.
func seedBudget(g *cluster.Group, sc *scope) attest.SeedBudget {
	if sc == nil {
		return g
	}
	return tracedBudget{g, sc}
}

// tracedConn times the client's reads and writes and counts their bytes.
type tracedConn struct {
	net.Conn
	sc *scope
}

func (c tracedConn) Read(p []byte) (int, error) {
	id := c.sc.open(spanWire)
	n, err := c.Conn.Read(p)
	c.sc.closeWire(id, n)
	return n, err
}

func (c tracedConn) Write(p []byte) (int, error) {
	id := c.sc.open(spanWire)
	n, err := c.Conn.Write(p)
	c.sc.closeWire(id, n)
	return n, err
}
