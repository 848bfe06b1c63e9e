package telemetry

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock returns a stepping clock: each call advances by step.
func fakeClock(start time.Time, step time.Duration) func() time.Time {
	t := start
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestJournalAppendAndOrder(t *testing.T) {
	j := NewJournal(8)
	j.SetClock(fakeClock(time.Unix(100, 0), time.Millisecond))
	for i := 0; i < 5; i++ {
		seq := j.Append(Event{Kind: EventSessionOpen, Session: uint64(i + 1), Device: "dev"})
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	events := j.Recent()
	if len(events) != 5 || j.Len() != 5 {
		t.Fatalf("retained %d/%d events, want 5", len(events), j.Len())
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) || e.Session != uint64(i+1) {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
		if e.Time.IsZero() {
			t.Fatalf("event %d not timestamped", i)
		}
	}
	if j.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", j.Dropped())
	}
}

func TestJournalRingOverwriteCountsDrops(t *testing.T) {
	j := NewJournal(4)
	var metric Counter
	j.SetDropCounter(&metric)
	for i := 0; i < 10; i++ {
		j.Append(Event{Kind: EventRetry})
	}
	if got := j.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	if metric.Value() != 6 {
		t.Fatalf("drop counter = %d, want 6", metric.Value())
	}
	events := j.Recent()
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	if events[0].Seq != 7 || events[3].Seq != 10 {
		t.Fatalf("ring window = [%d..%d], want [7..10]", events[0].Seq, events[3].Seq)
	}
}

func TestJournalByTrace(t *testing.T) {
	j := NewJournal(16)
	a, b := TraceID(0xaaaa), TraceID(0xbbbb)
	j.Append(Event{Trace: a, Kind: EventSessionOpen})
	j.Append(Event{Trace: b, Kind: EventSessionOpen})
	j.Append(Event{Trace: a, Kind: EventVerifyOutcome})
	j.Append(Event{Kind: EventFaultInjected}) // no trace context
	got := j.ByTrace(a)
	if len(got) != 2 || got[0].Kind != EventSessionOpen || got[1].Kind != EventVerifyOutcome {
		t.Fatalf("ByTrace(a) = %+v", got)
	}
}

func TestJournalSnapshotIsParseableJSONLines(t *testing.T) {
	j := NewJournal(8)
	j.Append(Event{Trace: 0x1234, Session: 7, Device: "node-1", Kind: EventVerifyOutcome, Detail: `verdict "rejected"`})
	j.Append(Event{Kind: EventFaultInjected, Detail: "class=drop"})
	var sb strings.Builder
	if err := j.Snapshot(&sb, "test-dump"); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q not valid JSON: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("%d lines, want header + 2 events", len(lines))
	}
	if lines[0]["flight_recorder"] != "test-dump" || lines[0]["events"].(float64) != 2 {
		t.Fatalf("bad header: %v", lines[0])
	}
	if lines[1]["trace_id"] != TraceID(0x1234).String() || lines[1]["device"] != "node-1" {
		t.Fatalf("bad event line: %v", lines[1])
	}
	if lines[2]["kind"] != "fault_injected" {
		t.Fatalf("bad event line: %v", lines[2])
	}
}

func TestJournalWriteJSONArray(t *testing.T) {
	j := NewJournal(8)
	j.Append(Event{Kind: EventBackoff, Detail: "42ms"})
	var sb strings.Builder
	if err := WriteJSON(&sb, j.Recent()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(events) != 1 || events[0]["kind"] != "backoff" || events[0]["detail"] != "42ms" {
		t.Fatalf("events = %v", events)
	}
}

func TestEventKindNamesStable(t *testing.T) {
	want := map[EventKind]string{
		EventSessionOpen: "session_open", EventSeedClaim: "seed_claim",
		EventChallengeSent: "challenge_sent", EventChecksumReceived: "checksum_received",
		EventVerifyOutcome: "verify_outcome", EventRetry: "retry",
		EventBackoff: "backoff", EventFaultInjected: "fault_injected",
		EventQuarantine: "quarantine", EventEpoch: "epoch",
		EventAlert: "alert",
	}
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() != want[k] {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want[k])
		}
	}
}

func TestJournalAppendDoesNotAllocate(t *testing.T) {
	j := NewJournal(64)
	e := Event{Trace: 1, Session: 2, Device: "node-0", Kind: EventRetry, Detail: "attempt 2"}
	allocs := testing.AllocsPerRun(200, func() { j.Append(e) })
	if allocs > 0 {
		t.Fatalf("Append allocates %.1f times per call, want 0", allocs)
	}
}
