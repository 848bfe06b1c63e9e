package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"pufatt/internal/attest"
)

func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	a := NewAdmission("s", 2, 0)
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	if v := a.met.InFlight.With("s").Value(); v != 2 {
		t.Fatalf("cluster_inflight_sessions{shard=s} = %v, want 2", v)
	}
	_, err = a.Acquire(context.Background())
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("saturated gate: %v, want OverloadError", err)
	}
	if oe.Shard != "s" || oe.InFlight != 2 {
		t.Fatalf("overload detail = %+v", oe)
	}
	if !IsOverload(err) {
		t.Fatal("IsOverload must recognise the rejection")
	}
	if attest.IsTransport(err) {
		t.Fatal("overload classified as transport: a retry loop would hammer the overloaded shard")
	}
	r1()
	r2()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight after release = %d, want 0", got)
	}
	if v := a.met.InFlight.With("s").Value(); v != 0 {
		t.Fatalf("cluster_inflight_sessions{shard=s} after release = %v, want 0", v)
	}
}

func TestAdmissionQueueAdmitsOnRelease(t *testing.T) {
	a := NewAdmission("s", 1, 1)
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() {
		r2, err := a.Acquire(context.Background())
		if err == nil {
			defer r2()
		}
		admitted <- err
	}()
	// Wait for the second session to reach the queue, as the queue-depth
	// gauge reports it.
	deadline := time.Now().Add(2 * time.Second)
	for a.met.QueueDepth.With("s").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("second session never queued: cluster_queue_depth{shard=s} = %v", a.met.QueueDepth.With("s").Value())
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Queue is now full: a third arrival is rejected with both occupancy
	// numbers.
	_, err = a.Acquire(context.Background())
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("full queue: %v, want OverloadError", err)
	}
	if oe.Queued != 1 {
		t.Fatalf("overload reported %d queued, want 1", oe.Queued)
	}
	r1()
	if err := <-admitted; err != nil {
		t.Fatalf("queued session not admitted on release: %v", err)
	}
	if v := a.met.QueueDepth.With("s").Value(); v != 0 {
		t.Fatalf("cluster_queue_depth{shard=s} after admission = %v, want 0", v)
	}
}

func TestAdmissionQueuedCancelIsTerminal(t *testing.T) {
	a := NewAdmission("s", 1, 4)
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer r1()
	ctx, cancel := context.WithCancel(context.Background())
	result := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx)
		result <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for a.QueueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	err = <-result
	if !errors.Is(err, attest.ErrCancelled) {
		t.Fatalf("queued cancel: %v, want attest.ErrCancelled", err)
	}
	if IsOverload(err) || attest.IsTransport(err) {
		t.Fatal("queued cancel must be terminal: neither overload nor transport")
	}
	// The abandoned ticket must not leak queue capacity.
	deadline = time.Now().Add(2 * time.Second)
	for a.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d after cancel", a.QueueDepth())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestAdmissionDefaults(t *testing.T) {
	a := NewAdmission("s", 0, 0)
	if cap(a.slots) != 32 {
		t.Fatalf("default in-flight cap = %d, want 32", cap(a.slots))
	}
	if a.queue != nil {
		t.Fatal("maxQueue <= 0 must mean no queue")
	}
}
