// Command bench is the repository's benchmark: four attestation workloads
// that separate the simulated prover (harness cost) from what a verifier
// pays (system cost), a traced run that splits each op into its layers, and
// a comparison of two sets of runs.
//
//	bash bench/run.sh --workload session --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload all --seed 1 --seconds 25 --out DIR
//	bash bench/run.sh compare BASE_DIR HEAD_DIR
//
// run.sh builds this package into .bench_build and runs it from the root of
// the repository. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloads are run in this order by -workload all.
var workloads = []string{"session", "verifier", "cluster", "figures"}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	// Load comes from this one process on at most two CPUs.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "session, verifier, cluster, figures, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 25, "least length of the timed phase")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1: write the spans as JSONL to this file")
	out := fs.String("out", "", "with -workload all: directory for one result per run and the traced runs' spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must not be negative")
		return 2
	}
	if *workload == "all" {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "bench: -workload all needs -out")
			return 2
		}
		return allMain(*seed, *seconds, *out)
	}
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s, or all)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}
	rep, err := runReport(*workload, defaultConfig, *seed, *seconds, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	printReport(rep)
	if !rep.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's full result. Its last-line form carries only
// correct, attempted, failed and metrics.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]metric `json:"info,omitempty"` // untraced runs: measured, not judged
	SetupS    []float64         `json:"setup_s"`
	Summary   summary           `json:"summary"`
	Problems  []string          `json:"problems,omitempty"`
}

// outcome is what run measured, before it becomes metrics.
type outcome struct {
	setupS []float64
	ph     *phase
	tr     *tracer
	sum    summary
}

// run sets the workload up cfg.setups times, keeping the last, then times
// it. A traced run records spans on about half its ops.
func run(name string, cfg config, seed uint64, seconds time.Duration, trace bool) (*outcome, error) {
	o := &outcome{}
	var sc *scope
	if trace {
		o.tr = newTracer()
		sc = newScope(o.tr)
	}
	type instance interface{ close() error }
	var (
		inst                  instance
		from, prefix, passLen int
		root                  = spanVerifier
	)
	for s := 0; s < cfg.setups; s++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		switch name {
		case "session":
			inst, err = setupSession(cfg, seed, sc)
			from, prefix, passLen = cfg.sessionWarmup, cfg.sessionPrefix, 1
		case "verifier":
			// The timed phase ends on a boundary of the fewest whole passes
			// holding minOps ops, so every recording is replayed equally often.
			inst, err = setupVerifier(cfg, seed, sc)
			from, prefix = cfg.verifierPass, cfg.verifierPass
			passLen = cfg.verifierPass * ((cfg.minOps + cfg.verifierPass - 1) / cfg.verifierPass)
		case "cluster":
			inst, err = setupCluster(cfg, seed, seconds, sc)
		case "figures":
			inst, err = setupFigures(cfg, seed, sc)
			from, prefix, passLen, root = cfg.figureWarmup, cfg.figurePrefix, 1, spanPair
		default:
			err = fmt.Errorf("unknown workload %q", name)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
	}
	o.tr.resetCounts()
	var err error
	switch w := inst.(type) {
	case *clusterLoop:
		o.ph, err = w.run(trace)
	case closedLoop:
		o.ph, err = runClosed(w, from, prefix, passLen, cfg.minOps, seconds, sc, root, trace)
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	o.sum = summarize(o.ph.records, o.ph.counts)
	return o, nil
}

// runReport runs one workload and turns the outcome into its report:
// end-to-end metrics untraced, per-layer metrics traced.
func runReport(name string, cfg config, seed uint64, seconds int, trace bool, spansPath string) (*report, error) {
	o, err := run(name, cfg, seed, time.Duration(seconds)*time.Second, trace)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: name, Seed: seed, Seconds: seconds, Attempted: o.ph.ops, Failed: o.ph.failed,
		SetupS: o.setupS, Summary: o.sum, Problems: o.ph.problems}
	if trace {
		rep.Trace = 1
		rep.Metrics, err = layerMetrics(o)
	} else {
		rep.Metrics, err = endToEndMetrics(o)
		rep.Info = infoMetrics(o.ph)
	}
	if err != nil {
		return nil, err
	}
	if o.ph.failed > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d of %d ops failed", o.ph.failed, o.ph.ops))
	}
	if seed == pins.Seed && cfg == defaultConfig {
		if err := checkPins(name, o.sum); err != nil {
			rep.Problems = append(rep.Problems, err.Error())
		}
	}
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.Problems = append(rep.Problems, fmt.Sprintf("metric %s is not a number", k))
			delete(rep.Metrics, k)
		}
	}
	rep.Correct = len(rep.Problems) == 0
	if trace && spansPath != "" {
		if err := o.tr.writeJSONL(spansPath); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, nil
}

// endToEndMetrics are what a user of the system sees, from an untraced run.
func endToEndMetrics(o *outcome) (map[string]metric, error) {
	ph := o.ph
	p90, err := percentile(ph.latMs, 0.90)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":     {median(o.setupS), "s"},
		"op_p90_ms":   {p90, "ms"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}, nil
}

// infoMetrics are printed beside the end-to-end metrics but not judged,
// because on a shared host they do not repeat. There op latency has two
// modes: the vCPU runs at one of two speeds as other tenants' load comes and
// goes, and the share of a run spent in each varies from run to run. The p90
// lies in the slow mode whatever the share; the median and the means
// (throughput, CPU per op) move with the share. The p99 moves with how often
// the host stalls the vCPU for several milliseconds, which comes in bursts
// of minutes.
func infoMetrics(ph *phase) map[string]metric {
	m := map[string]metric{
		"ops_per_s":     {float64(ph.ops) / ph.wall.Seconds(), "1/s"},
		"cpu_ms_per_op": {ms(ph.cpu) / float64(ph.ops), "ms"},
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"op_p50_ms", 0.50}, {"op_p99_ms", 0.99}} {
		if v, err := percentile(ph.latMs, p.q); err == nil {
			m[p.name] = metric{v, "ms"}
		}
	}
	return m
}

// layerMetrics split a traced run's ops into the layers that served them.
// Time is reported as each layer's share of the traced ops' wall time, so
// a layer a workload never enters reads 0 rather than a time. Counts are
// per op: wrapper calls and wire bytes over every timed op, registry
// counters over the pinned prefix (the whole run for the open loop, whose
// passes repeat exactly), runtime figures over the timed phase.
func layerMetrics(o *outcome) (map[string]metric, error) {
	ph, ls := o.ph, o.tr.layers()
	calls, wireBytes := o.tr.counts()
	root := ls[spanVerifier]
	if ls[spanPair].count > 0 {
		root = ls[spanPair]
	}
	if root.count == 0 {
		return nil, errors.New("no traced ops")
	}
	share := func(ns int64) metric { return metric{float64(ns) / float64(root.total), "frac"} }
	perOp := func(x float64, unit string) metric { return metric{x / float64(ph.ops), unit} }

	var traced, untraced []float64
	for i, lat := range ph.latMs {
		if ph.traced[i] {
			traced = append(traced, lat)
		} else {
			untraced = append(untraced, lat)
		}
	}
	pt, err := percentile(traced, 0.5)
	if err != nil {
		return nil, err
	}
	pu, err := percentile(untraced, 0.5)
	if err != nil {
		return nil, err
	}
	lag, err := percentile(ph.lagMs, 0.99)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{
		"attest.prover.share":          share(ls[spanProver].total),
		"mcu.cpu.self_share":           share(ls[spanCPU].self),
		"mcu.feed.share":               share(ls[spanFeed].total),
		"mcu.finish.share":             share(ls[spanFinish].total),
		"core.reference.share":         share(ls[spanReference].total),
		"attest.verifier.self_share":   share(ls[spanVerifier].self),
		"attest.wire.share":            share(ls[spanWire].self),
		"cluster.admit.share":          share(ls[spanAdmit].total),
		"cluster.claim.share":          share(ls[spanClaim].total),
		"experiments.figure3.share":    share(ls[spanFigure3].total),
		"experiments.figure4.share":    share(ls[spanFigure4].total),
		"mcu.feed.calls_per_op":        perOp(float64(calls[spanFeed]), "count"),
		"core.reference.calls_per_op":  perOp(float64(calls[spanReference]), "count"),
		"attest.retry.attempts_per_op": perOp(float64(ph.attempts), "count"),
		"attest.wire.bytes_per_op":     perOp(float64(wireBytes), "bytes"),
		"runtime.alloc_bytes_per_op":   perOp(float64(ph.allocBytes), "bytes"),
		"runtime.mallocs_per_op":       perOp(float64(ph.mallocs), "count"),
		"runtime.gc_cycles_per_op":     perOp(float64(ph.gcs), "count"),
		"bench.gen_lag_p99_ms":         {lag, "ms"},
		"bench.trace_overhead_frac":    {pt/pu - 1, "frac"},
	}
	for k, v := range ph.counts {
		m[k] = metric{v, "count"}
	}
	return m, nil
}

// printReport writes the human-readable lines, then the full report as
// JSON, then — last — the result line: correct, attempted, failed and
// metrics.
func printReport(rep *report) {
	mode := "untraced"
	if rep.Trace == 1 {
		mode = "traced"
	}
	fmt.Printf("workload %s, seed %d, %s: %d ops, %d failed, set-ups %v s\n",
		rep.Workload, rep.Seed, mode, rep.Attempted, rep.Failed, rep.SetupS)
	if len(rep.Summary.Verdicts) > 0 {
		fmt.Printf("verdicts over the first %d ops: %v\n", rep.Summary.Ops, rep.Summary.Verdicts)
	}
	for _, p := range rep.Problems {
		fmt.Println("CHECK FAILED:", p)
	}
	for _, group := range []struct {
		ms   map[string]metric
		note string
	}{{rep.Metrics, ""}, {rep.Info, " (not judged)"}} {
		names := make([]string, 0, len(group.ms))
		for k := range group.ms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-30s %14.6g %s%s\n", k, group.ms[k].Value, group.ms[k].Unit, group.note)
		}
	}
	full, err := json.Marshal(rep)
	if err != nil {
		panic(err) // every field is a plain value; NaNs were removed
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s\n%s\n", full, line)
}

// allMain runs every workload untraced, then traced, each in its own
// process so one workload's heap cannot inflate the next one's memory. It
// writes DIR/<workload>.seed<N>.<untraced|traced>.json and the traced
// run's spans, and fails if any run fails its checks, if a traced run's
// digest differs from the untraced one, or if tracing costs over 10%.
func allMain(seed uint64, seconds int, out string) int {
	exe, err := os.Executable()
	if err == nil {
		err = os.MkdirAll(out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	status := 0
	fail := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
		status = 1
	}
	for _, w := range workloads {
		var digests [2]string
		for trace, mode := range []string{"untraced", "traced"} {
			base := filepath.Join(out, fmt.Sprintf("%s.seed%d.%s", w, seed, mode))
			args := []string{"-workload", w, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
			if trace == 1 {
				args = append(args, "-spans", base+".spans.jsonl")
			}
			var stdout bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var rep report
			if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-2]), &rep) != nil {
				fail("%s %s: no result (%v)", w, mode, runErr)
				continue
			}
			if err := os.WriteFile(base+".json", []byte(lines[len(lines)-2]+"\n"), 0o644); err != nil {
				fail("%v", err)
			}
			if runErr != nil || !rep.Correct {
				fail("%s %s: checks failed: %v", w, mode, rep.Problems)
			}
			digests[trace] = rep.Summary.Digest
			if oh := rep.Metrics["bench.trace_overhead_frac"].Value; trace == 1 && oh > 0.10 {
				fail("%s: tracing overhead %.3f exceeds 0.10", w, oh)
			}
			fmt.Printf("%s %s: %d ops, digest %s\n", w, mode, rep.Attempted, rep.Summary.Digest)
		}
		if digests[0] != digests[1] {
			fail("%s: traced digest %s differs from untraced %s", w, digests[1], digests[0])
		}
	}
	return status
}
