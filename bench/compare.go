package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json compare needs: each end-to-end
// metric's direction and regression bound.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two directories of untraced results (as written by
// -workload all -out) metric by metric. Runs pair up by seed order. It
// exits 1 if any metric regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE_DIR HEAD_DIR  (run from the repository root)")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	var sp spec
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare: BENCHMARK.json:", err)
		return 2
	}
	base, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	head, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	status := 0
	fmt.Printf("%-9s %-14s %-34s %-34s %-6s %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, w := range workloads {
		b, h := base[w], head[w]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			bv, hv := values(b, m.Name), values(h, m.Name)
			v := judge(bv, hv, m.Better == "lower", m.Bound)
			fmt.Printf("%-9s %-14s %-34s %-34s %-6s %s\n", w, m.Name, describe(bv), describe(hv),
				fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
			if v.verdict == "regression" {
				status = 1
			}
		}
		bf, hf := failures(b), failures(h)
		if hf > bf {
			fmt.Printf("%-9s failed ops: base %d, head %d — regression\n", w, bf, hf)
			status = 1
		}
	}
	return status
}

// readResults loads every untraced result in dir, by workload, in seed
// order.
func readResults(dir string) (map[string][]report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.untraced.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s holds no untraced results", dir)
	}
	out := map[string][]report{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(a, b int) bool { return rs[a].Seed < rs[b].Seed })
	}
	return out, nil
}

func values(rs []report, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failures(rs []report) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	verdict     string // gain, regression, unresolved or unchanged
	wins, pairs int
}

// judge applies the measurement rule: a gain needs the head to win at
// least nine in ten pairs (ties count for neither side) and the medians to
// differ by more than the base's interquartile range; a regression is a
// head median worse than the base's by more than the bound; a metric whose
// run-to-run spread exceeds the bound is unresolved unless every head run
// beats every base run; anything else is unchanged.
func judge(base, head []float64, lowerBetter bool, bound float64) verdict {
	better := func(h, b float64) bool {
		if lowerBetter {
			return h < b
		}
		return h > b
	}
	v := verdict{pairs: min(len(base), len(head))}
	for i := 0; i < v.pairs; i++ {
		if better(head[i], base[i]) {
			v.wins++
		}
	}
	mb, mh := median(base), median(head)
	q1, q3 := quartiles(base)
	worse := (mh - mb) / mb
	if !lowerBetter {
		worse = -worse
	}
	spread := math.Max(spreadOf(base), spreadOf(head))
	switch {
	case v.pairs > 0 && 10*v.wins >= 9*v.pairs && worse < 0 && math.Abs(mh-mb) > q3-q1:
		v.verdict = "gain"
	case worse > bound:
		v.verdict = "regression"
	case !(spread <= bound) && !separated(base, head, better):
		v.verdict = "unresolved"
	default:
		v.verdict = "unchanged"
	}
	return v
}

// spreadOf is the interquartile range as a share of the median (NaN for
// fewer than two runs).
func spreadOf(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// separated reports whether every head run beats every base run.
func separated(base, head []float64, better func(h, b float64) bool) bool {
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				return false
			}
		}
	}
	return len(head) > 0 && len(base) > 0
}
