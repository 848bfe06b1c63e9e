package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"pufatt/internal/core"
	"pufatt/internal/crp"
	"pufatt/internal/crp/store"
	"pufatt/internal/rng"
)

// One claim state machine, four holders. Every holder of claim state is a
// sink around a crp.Ledger — crp.Database (memory), store.Store and its
// eviction-transparent store.Handle (the WAL), and Group (the replicated
// frame log) — so one scripted sequence must produce identical results on
// all of them.

// claimSink is the claim surface every holder exposes.
type claimSink interface {
	Claim(seed uint64) error
	NextUnusedWithEpoch() (uint64, uint32, error)
	Remaining() int
	ReferenceResponse(seed uint64, j int) ([]uint8, error)
	Epoch() uint32
}

// sinkUnderTest drives one holder. restart is the script's mid-run
// disruption (a no-op in the plain runs); ingest feeds a raw frame through
// the holder's frame-ingest path (WAL replay on reopen, or a follower's
// apply) and is nil for the in-memory database, whose frames only
// originate in-process; reopen compacts, closes and reopens a durable
// holder (nil when there is nothing durable).
type sinkUnderTest struct {
	sink    claimSink
	commit  func(epoch uint32, seeds []uint64) error
	restart func()
	ingest  func(frame []byte) error
	reopen  func()
}

const conformanceChip = 7

var conformanceSeeds = []uint64{10, 20, 30, 40}

// conformanceDevice is a small device: the script needs real, measured
// references, not paper-scale ones.
func conformanceDevice() *core.Device {
	cfg := core.DefaultConfig()
	cfg.Width = 16
	return core.MustNewDevice(core.MustNewDesign(cfg), rng.New(1), conformanceChip)
}

// measureAt measures an enrollment with the device reconfigured to epoch.
func measureAt(t *testing.T, dev *core.Device, epoch uint32, seeds []uint64) *crp.Enrollment {
	t.Helper()
	dev.SetEpoch(epoch)
	enr, err := crp.Measure(dev, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	return enr
}

// replayFrame appends one raw frame to a closed store directory's WAL,
// reports what opening the store makes of it, and restores the WAL.
func replayFrame(t *testing.T, dir string, frame []byte, open func() error) error {
	t.Helper()
	path := filepath.Join(dir, "crp.wal")
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(wal, frame...), 0o644); err != nil {
		t.Fatal(err)
	}
	err = open()
	if werr := os.WriteFile(path, wal, 0o644); werr != nil {
		t.Fatal(werr)
	}
	return err
}

func newDatabaseSink(t *testing.T) *sinkUnderTest {
	dev := conformanceDevice()
	db, err := crp.Enroll(dev, conformanceSeeds)
	if err != nil {
		t.Fatal(err)
	}
	return &sinkUnderTest{
		sink: db,
		commit: func(epoch uint32, seeds []uint64) error {
			return db.CommitEpoch(measureAt(t, dev, epoch, seeds))
		},
		restart: func() {},
	}
}

// newStoreSink is the durable store; with reopenOnRestart set, restart is
// a close and reopen from disk.
func newStoreSink(t *testing.T, reopenOnRestart bool) *sinkUnderTest {
	dev := conformanceDevice()
	dir := t.TempDir()
	opts := store.Options{NoSync: true}
	st, err := store.Enroll(dir, dev, conformanceSeeds, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := &sinkUnderTest{sink: st}
	reopen := func() {
		st.Close()
		if st, err = store.Open(dir, opts); err != nil {
			t.Fatal(err)
		}
		s.sink = st
	}
	s.commit = func(epoch uint32, seeds []uint64) error {
		dev.SetEpoch(epoch)
		return st.Reenroll(dev, seeds, 1)
	}
	s.restart = func() {}
	if reopenOnRestart {
		s.restart = reopen
	}
	s.ingest = func(frame []byte) error {
		st.Close()
		defer reopen()
		return replayFrame(t, dir, frame, func() error {
			re, err := store.Open(dir, opts)
			if err == nil {
				re.Close()
			}
			return err
		})
	}
	s.reopen = func() {
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		reopen()
	}
	return s
}

// newHandleSink is a registry handle whose store the registry may close
// and reload underneath it.
func newHandleSink(t *testing.T) *sinkUnderTest {
	dev := conformanceDevice()
	r, err := store.OpenRegistry(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if _, err := r.Enroll(dev, conformanceSeeds, 1); err != nil {
		t.Fatal(err)
	}
	h, err := r.Handle(conformanceChip)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(r.Root(), "device-"+strconv.Itoa(conformanceChip))
	return &sinkUnderTest{
		sink: h,
		commit: func(epoch uint32, seeds []uint64) error {
			st, err := r.Device(conformanceChip)
			if err != nil {
				return err
			}
			dev.SetEpoch(epoch)
			return st.Reenroll(dev, seeds, 1)
		},
		restart: func() {},
		ingest: func(frame []byte) error {
			r.Close()
			return replayFrame(t, dir, frame, func() error {
				_, err := r.Device(conformanceChip)
				r.Close()
				return err
			})
		},
		reopen: func() {
			if err := r.CompactAll(); err != nil {
				t.Fatal(err)
			}
			r.Close()
		},
	}
}

// newGroupSink is a replicated group on three shards; with failover set,
// restart kills the leader and the next claim promotes a caught-up
// replica.
func newGroupSink(t *testing.T, failover bool) *sinkUnderTest {
	dev := conformanceDevice()
	c := threeShards(t, true)
	g, err := c.Enroll(measureAt(t, dev, 0, conformanceSeeds))
	if err != nil {
		t.Fatal(err)
	}
	s := &sinkUnderTest{
		sink: g,
		commit: func(epoch uint32, seeds []uint64) error {
			return g.CommitEpoch(measureAt(t, dev, epoch, seeds))
		},
		restart: func() {},
		ingest: func(frame []byte) error {
			g.mu.Lock()
			defer g.mu.Unlock()
			lead := g.replicas[g.leader]
			for _, sid := range g.replicas {
				if sid != lead && c.shardAlive(sid) {
					l := g.logs[sid]
					return l.apply(l.applied()+1, frame)
				}
			}
			return errors.New("no live follower")
		},
	}
	if failover {
		s.restart = func() {
			lead, err := g.Leader()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Kill(lead); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Cleanup(func() {
		if a := c.AuditClaims(); !a.Clean() {
			t.Errorf("claim audit: %v", a.Violations)
		}
	})
	return s
}

// outcome classifies an error by the shared sentinels, so holders that
// wrap errors differently still compare equal.
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, crp.ErrEpochOrder):
		return "epoch-order"
	case errors.Is(err, crp.ErrEpochRetired):
		return "retired"
	case errors.Is(err, crp.ErrExhausted):
		return "exhausted"
	case errors.Is(err, crp.ErrSeedUsed):
		return "used"
	case errors.Is(err, crp.ErrUnknownSeed):
		return "unknown"
	case errors.Is(err, crp.ErrNotClaimed):
		return "unclaimed"
	default:
		return "error"
	}
}

func claim(seed uint64) func(*sinkUnderTest) string {
	return func(s *sinkUnderTest) string { return outcome(s.sink.Claim(seed)) }
}

func next(s *sinkUnderTest) string {
	seed, epoch, err := s.sink.NextUnusedWithEpoch()
	if err != nil {
		return outcome(err)
	}
	return fmt.Sprintf("%d@%d", seed, epoch)
}

func reference(seed uint64, j int) func(*sinkUnderTest) string {
	return func(s *sinkUnderTest) string {
		_, err := s.sink.ReferenceResponse(seed, j)
		return outcome(err)
	}
}

func ingest(frame []byte) func(*sinkUnderTest) string {
	return func(s *sinkUnderTest) string { return outcome(s.ingest(frame)) }
}

func remaining(s *sinkUnderTest) string { return strconv.Itoa(s.sink.Remaining()) }

func commit(epoch uint32, seeds ...uint64) func(*sinkUnderTest) string {
	return func(s *sinkUnderTest) string { return outcome(s.commit(epoch, seeds)) }
}

// callerOwned writes into a returned reference and reports whether the
// next lookup still returns the original.
func callerOwned(seed uint64, j int) func(*sinkUnderTest) string {
	return func(s *sinkUnderTest) string {
		ref, err := s.sink.ReferenceResponse(seed, j)
		if err != nil {
			return outcome(err)
		}
		want := append([]uint8(nil), ref...)
		for i := range ref {
			ref[i] ^= 1
		}
		again, err := s.sink.ReferenceResponse(seed, j)
		if err != nil {
			return outcome(err)
		}
		if !bytes.Equal(again, want) {
			return "shared"
		}
		return "ok"
	}
}

// conformanceScript is the scripted sequence, enrolled at epoch 0 with
// seeds 10, 20, 30, 40. Its last rows are the three cases the holders
// once disagreed on: epochs moving backwards, (seed, epoch) scoping of
// re-enrolled seeds, and references shared with the caller.
var conformanceScript = []struct {
	name   string
	run    func(*sinkUnderTest) string
	want   string
	ingest bool // feeds a raw frame: only holders with a frame-ingest path
}{
	{name: "reference before claim", run: reference(10, 0), want: "unclaimed"},
	{name: "claim", run: claim(10), want: "ok"},
	{name: "replay", run: claim(10), want: "used"},
	{name: "unknown seed", run: claim(99), want: "unknown"},
	{name: "unknown seed reference", run: reference(99, 0), want: "unknown"},
	{name: "out-of-range j", run: reference(10, 8), want: "error"},
	{name: "direct claim", run: claim(30), want: "ok"},
	{name: "remaining", run: remaining, want: "2"},
	{name: "restart", run: func(s *sinkUnderTest) string { s.restart(); return "ok" }, want: "ok"},
	{name: "replay after restart", run: claim(10), want: "used"},
	{name: "next unused", run: next, want: "20@0"},
	{name: "next unused skips direct claim", run: next, want: "40@0"},
	{name: "remaining at exhaustion", run: remaining, want: "0"},
	{name: "exhaustion", run: next, want: "exhausted"},
	{name: "transition with same-seed re-enrollment", run: commit(3, 10, 20, 50), want: "ok"},
	{name: "epoch after transition", run: func(s *sinkUnderTest) string { return strconv.Itoa(int(s.sink.Epoch())) }, want: "3"},
	{name: "remaining after transition", run: remaining, want: "3"},
	{name: "retired epoch's seed", run: claim(30), want: "unknown"},
	{name: "retired epoch's reference", run: reference(40, 0), want: "unknown"},
	{name: "re-enrolled seed's reference needs a new-epoch claim", run: reference(20, 3), want: "unclaimed"},
	{name: "re-enrolled seed claimable once per (seed, epoch)", run: claim(10), want: "ok"},
	{name: "re-enrolled seed replay", run: claim(10), want: "used"},
	{name: "next unused in the new epoch", run: next, want: "20@3"},
	{name: "references are caller-owned", run: callerOwned(10, 2), want: "ok"},
	{name: "epoch backwards 3→1", run: commit(1, 60), want: "epoch-order"},
	{name: "epoch not advancing 3→3", run: commit(3, 60), want: "epoch-order"},
	{name: "remaining after refused transitions", run: remaining, want: "1"},
	{name: "frame 9→2 from a foreign epoch", run: ingest(crp.TransitionFrame(9, 2)), want: "epoch-order", ingest: true},
	{name: "frame 9→10 from a foreign epoch", run: ingest(crp.TransitionFrame(9, 10)), want: "epoch-order", ingest: true},
	{name: "frame 3→2 backwards", run: ingest(crp.TransitionFrame(3, 2)), want: "epoch-order", ingest: true},
	{name: "state unchanged by refused frames", run: next, want: "50@3"},
}

func TestLedgerConformance(t *testing.T) {
	sinks := []struct {
		name string
		new  func(*testing.T) *sinkUnderTest
	}{
		{"database", newDatabaseSink},
		{"store", func(t *testing.T) *sinkUnderTest { return newStoreSink(t, false) }},
		{"store-reopened", func(t *testing.T) *sinkUnderTest { return newStoreSink(t, true) }},
		{"handle", newHandleSink},
		{"group", func(t *testing.T) *sinkUnderTest { return newGroupSink(t, false) }},
		{"group-failover", func(t *testing.T) *sinkUnderTest { return newGroupSink(t, true) }},
	}
	for _, sk := range sinks {
		t.Run(sk.name, func(t *testing.T) {
			s := sk.new(t)
			for _, step := range conformanceScript {
				if step.ingest && s.ingest == nil {
					continue
				}
				if got := step.run(s); got != step.want {
					t.Errorf("%s: got %s, want %s", step.name, got, step.want)
				}
			}
		})
	}
}

// TestReferenceResponseIsCallerOwned: a holder shares one enrollment
// across lookups (and, in a group, across replicas), so a caller that
// writes into a returned reference must change neither the next lookup
// nor what a compacted-then-reopened snapshot serves.
func TestReferenceResponseIsCallerOwned(t *testing.T) {
	sinks := []struct {
		name string
		new  func(*testing.T) *sinkUnderTest
	}{
		{"database", newDatabaseSink},
		{"store", func(t *testing.T) *sinkUnderTest { return newStoreSink(t, false) }},
		{"handle", newHandleSink},
		{"group", func(t *testing.T) *sinkUnderTest { return newGroupSink(t, false) }},
	}
	for _, sk := range sinks {
		t.Run(sk.name, func(t *testing.T) {
			s := sk.new(t)
			if err := s.sink.Claim(20); err != nil {
				t.Fatal(err)
			}
			want, err := s.sink.ReferenceResponse(20, 2)
			if err != nil {
				t.Fatal(err)
			}
			want = append([]uint8(nil), want...)
			if got := callerOwned(20, 2)(s); got != "ok" {
				t.Fatalf("reference after a caller's write: %s", got)
			}
			if s.reopen == nil {
				return
			}
			ref, err := s.sink.ReferenceResponse(20, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				ref[i] ^= 1
			}
			s.reopen()
			again, err := s.sink.ReferenceResponse(20, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, want) {
				t.Fatalf("reopened snapshot serves %v, want %v", again, want)
			}
		})
	}
}
