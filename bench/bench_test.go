package main

import (
	"math"
	"reflect"
	"testing"
)

// tiny shrinks every workload so the whole suite runs in seconds.
var tiny = config{
	setups:          1,
	sessionDevices:  2,
	sessionWarmup:   2,
	sessionPrefix:   8,
	verifierDevices: 2,
	verifierPass:    32,
	clusterDevices:  4,
	clusterPass:     40,
	figureSeeds:     32,
	figureWarmup:    1,
	figurePrefix:    4,
	minOps:          8,
}

// TestWorkloadsPassTheirChecks runs each workload at tiny size twice
// untraced and once traced: every run passes its checks with no failed op,
// and all three agree on the digest, verdicts and layer counts.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			var sums []summary
			for _, trace := range []bool{false, false, true} {
				o, err := run(name, tiny, 1, 0, trace)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if o.ph.failed != 0 || len(o.ph.problems) != 0 {
					t.Fatalf("trace=%v: %d failed ops, problems %v", trace, o.ph.failed, o.ph.problems)
				}
				if trace {
					ls := o.tr.layers()
					if ls[spanVerifier].count+ls[spanPair].count == 0 {
						t.Fatal("traced run recorded no op spans")
					}
				}
				sums = append(sums, o.sum)
			}
			for _, s := range sums[1:] {
				if !reflect.DeepEqual(s, sums[0]) {
					t.Fatalf("summaries differ:\n%+v\n%+v", sums[0], s)
				}
			}
		})
	}
}

// TestTamperedReplayRejected checks that the replay's corrupted tags and
// late responses are rejected for the reason planted.
func TestTamperedReplayRejected(t *testing.T) {
	w, err := setupVerifier(tiny, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for i := tiny.verifierPass; i < 2*tiny.verifierPass; i++ {
		r, err := w.op(i)
		if err != nil || r.failed {
			t.Fatalf("op %d: %v (failed %v)", i, err, r.failed)
		}
		switch i % 16 {
		case 0:
			if r.verdict != "attestation response mismatch" {
				t.Errorf("op %d: corrupted tag got verdict %q", i, r.verdict)
			}
		case 8:
			if r.verdict != "time bound exceeded" {
				t.Errorf("op %d: late response got verdict %q", i, r.verdict)
			}
		}
	}
}

// TestReplayMissFails checks that a challenge with no recording is a failed
// op, not a rejection, and that the next op recovers on a fresh connection.
func TestReplayMissFails(t *testing.T) {
	w, err := setupVerifier(tiny, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.agent.mu.Lock()
	delete(w.table.idx, w.table.recs[0].ch)
	w.agent.mu.Unlock()
	r, err := w.op(tiny.verifierPass)
	if err != nil {
		t.Fatal(err)
	}
	if !r.failed || r.verdict != "" {
		t.Fatalf("missing recording: failed %v, verdict %q", r.failed, r.verdict)
	}
	r, err = w.op(tiny.verifierPass + 1)
	if err != nil || r.failed {
		t.Fatalf("op after the miss: %v (failed %v)", err, r.failed)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	if _, err := percentile(samples(999), 0.99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) accepted")
	}
	if v, err := percentile(samples(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990", v, err)
	}
	if _, err := percentile(samples(19), 0.5); err == nil {
		t.Error("p50 of 19 samples (9 beyond) accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b * f
		}
		return out
	}
	for _, c := range []struct {
		head        []float64
		lowerBetter bool
		want        string
	}{
		{scaled(0.9), true, "gain"},
		{scaled(1.1), true, "regression"},
		{scaled(1.01), true, "unchanged"},
		{scaled(1.1), false, "gain"},
		{append(scaled(1.0)[:5], 20, 5, 20, 5, 20), true, "unresolved"},
	} {
		if got := judge(base, c.head, c.lowerBetter, 0.05).verdict; got != c.want {
			t.Errorf("judge(%v, lowerBetter=%v) = %s, want %s", c.head, c.lowerBetter, got, c.want)
		}
	}
	if v := judge(base, base, true, 0.05); v.wins != 0 || v.pairs != len(base) {
		t.Errorf("ties counted as wins: %+v", v)
	}
	if !math.IsNaN(spreadOf([]float64{1})) {
		t.Error("spread of one run is defined")
	}
}
