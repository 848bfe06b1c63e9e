// Command pufatt-attest runs the PUFatt remote attestation protocol. It
// can act as the embedded prover (a TCP service wrapping the simulated
// device), as the verifier (holding the emulation model), or run both sides
// in-process for a quick demonstration.
//
// Usage:
//
//	pufatt-attest -mode local -sessions 3
//	pufatt-attest -mode prove -listen :7701 &
//	pufatt-attest -mode verify -connect localhost:7701 -sessions 5
//
// Prover and verifier must agree on -seed/-chip (the manufactured device
// and its enrolled model) and the attestation parameters.
//
// Robustness controls: the verifier retries transport faults with
// exponential backoff (-retries, -attempt-timeout); a rejected verdict is
// never retried. The deterministic fault injector (-fault-drop,
// -fault-corrupt, -fault-truncate, -fault-delay, -fault-dup, under
// -fault-seed) mangles the verifier's frames so the recovery machinery can
// be demonstrated against a live prover service.
//
// Observability: -metrics-addr serves the admin surface (Prometheus
// metrics, trace trees, the protocol-event journal, per-device health).
// -flight-dir snapshots the journal to a JSON-lines dump whenever a
// session fails, tagged with the failing session's trace ID. -slo-rtt and
// -slo-fnr set the per-device SLO thresholds that drive /devices and
// /healthz: a prover whose p95 round-trip exceeds -slo-rtt is flagged
// suspect from timing alone, the PUFatt signature of an overclocked or
// proxied device. The same thresholds derive the burn-rate alert rules
// served at /alerts, and /metrics/history keeps an hour of windowed
// samples (collected every -history-window) for every metric — watch both
// live with cmd/pufatt-top. -profile-dir keeps a bounded on-disk ring of
// pprof captures, written when an alert fires (tagged with the alert name
// and an exemplar trace ID) and on a low-duty-cycle timer; the capture
// index is served at /debug/profiles.
//
// Federation: -federate "a=http://host1:9090,b=http://host2:9090" turns
// the process into a fleet-level observability endpoint instead of an
// attestation role: it scrapes each named verifier's admin surface and
// re-serves the merged series, device health, and alerts on -metrics-addr,
// every record labeled with its source.
//
// Durable CRP budget: -store-dir points the verifier at a persistent
// enrollment store; each session claims one single-use seed, and claims
// survive restarts (crash-safe via snapshot + WAL). When the budget runs
// low (-slo-budget watermark) the device degrades at /devices; when it
// empties, sessions fail with the typed exhaustion error and the device
// reports awaiting-reenroll until -reenroll cuts it over to a fresh
// reconfiguration epoch (old claims can never resurface). Maintenance:
//
//	pufatt-attest -store-dir /var/lib/pufatt/chip0 -enroll 1024
//	pufatt-attest -store-dir /var/lib/pufatt/chip0 -compact
//	pufatt-attest -store-dir /var/lib/pufatt/chip0 -reenroll 1024
//	pufatt-attest -store-dir /var/lib/pufatt/chip0 -mode local -sessions 3
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"pufatt/internal/attest"
	"pufatt/internal/buildinfo"
	"pufatt/internal/core"
	"pufatt/internal/crp/store"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
	"pufatt/internal/telemetry"
)

func main() {
	var (
		mode     = flag.String("mode", "local", "local, prove, or verify")
		listen   = flag.String("listen", ":7701", "prover listen address")
		connect  = flag.String("connect", "localhost:7701", "verifier target address")
		sessions = flag.Int("sessions", 3, "attestation sessions to run")
		seed     = flag.Uint64("seed", 1, "device manufacturing seed")
		chip     = flag.Int("chip", 0, "chip id")
		chunks   = flag.Int("chunks", 16, "checksum chunks")
		blocks   = flag.Int("blocks", 16, "blocks per chunk")
		memWords = flag.Int("mem", 4096, "attested words (power of two)")
		infect   = flag.Bool("infect", false, "tamper the prover's memory (should be rejected)")

		retries     = flag.Int("retries", 4, "transport-fault attempt budget per session")
		attemptTO   = flag.Duration("attempt-timeout", 2*time.Second, "per-attempt I/O deadline")
		serveTO     = flag.Duration("serve-timeout", time.Minute, "prover per-exchange idle deadline")
		faultDrop   = flag.Float64("fault-drop", 0, "probability of dropping a frame")
		faultCorr   = flag.Float64("fault-corrupt", 0, "probability of flipping a bit in a frame")
		faultTrunc  = flag.Float64("fault-truncate", 0, "probability of truncating a frame")
		faultDelay  = flag.Float64("fault-delay", 0, "probability of delaying a frame")
		faultDup    = flag.Float64("fault-dup", 0, "probability of duplicating a frame")
		faultDelayS = flag.Float64("fault-delay-secs", 0.5, "injected delay per delay fault (seconds)")
		faultJit    = flag.Float64("fault-jitter", 0, "probability of jittering a response: delivered intact but late, inflating the observed RTT")
		faultJitS   = flag.Float64("fault-jitter-secs", 0.02, "added latency per jitter fault (seconds)")
		faultMax    = flag.Int("max-faults", 0, "stop injecting after N faults (0 = forever)")
		faultSeed   = flag.Uint64("fault-seed", 1, "fault schedule seed")
		faultLog    = flag.Bool("fault-log", false, "emit one JSON line per injected fault to stderr")

		metricsAddr = flag.String("metrics-addr", "",
			"serve /metrics, /metrics/history, /alerts, /debug/vars, /debug/traces, /debug/journal, /devices, /healthz, and /debug/pprof on this address (empty = disabled)")
		historyWindow = flag.Duration("history-window", 5*time.Second,
			"collection interval for /metrics/history windowed samples and burn-rate alert evaluation")
		federate = flag.String("federate", "",
			"run as a federation endpoint instead of attesting: comma-separated name=http://host:port admin sources, scraped every -history-window and re-served merged (with per-source labels) on -metrics-addr")
		flightDir = flag.String("flight-dir", "",
			"write a flight-recorder dump (JSON lines of the session's protocol events) here whenever a session fails (empty = disabled)")
		profileDir = flag.String("profile-dir", "",
			"keep a bounded ring of pprof captures (cpu/heap/goroutine/mutex) here, taken when a burn-rate alert fires and periodically at -profile-interval; index at /debug/profiles (empty = disabled)")
		profileInterval = flag.Duration("profile-interval", telemetry.DefaultProfileInterval,
			"low-duty-cycle periodic profile capture interval (0 = alert-triggered captures only)")
		sloRTT = flag.Float64("slo-rtt", 0,
			"per-device timing SLO: p95 round-trip bound in seconds; a device over it turns suspect at /devices (0 = no timing SLO)")
		sloFNR = flag.Float64("slo-fnr", 0.25,
			"per-device response-quality SLO: false-negative-rate drift bound (0 = disabled)")
		sloBudget = flag.Int("slo-budget", 0,
			"per-device seed-budget watermark: at or below this many remaining seeds the device degrades with 'seed budget low' at /devices (0 = disabled)")

		storeDir = flag.String("store-dir", "",
			"durable CRP store directory: verifier sessions claim single-use seeds that survive restarts (empty = emulation model, no budget)")
		enroll   = flag.Int("enroll", 0, "enroll N fresh seeds into -store-dir and exit")
		compact  = flag.Bool("compact", false, "fold the -store-dir claim WAL into its snapshot and exit")
		reenroll = flag.Int("reenroll", 0,
			"re-enroll N seeds into -store-dir under the next reconfiguration epoch (retiring the current one) and exit")
	)
	version := buildinfo.VersionFlags("pufatt-attest")
	flag.Parse()
	version()

	if *federate != "" {
		check(runFederate(*metricsAddr, *federate, *historyWindow))
		return
	}

	if *metricsAddr != "" {
		addr, stopAdmin, err := attest.StartAdmin(*metricsAddr, nil)
		check(err)
		defer stopAdmin()
		// History and burn-rate alerts only move when someone samples them;
		// the admin endpoint is that someone's reason to exist.
		attest.Metrics().History.SetWindow(*historyWindow)
		stopObs := attest.Metrics().StartObservability(*historyWindow)
		defer stopObs()
		fmt.Printf("telemetry: http://%s/metrics (history at /metrics/history, alerts at /alerts, health at /devices, /healthz)\n", addr)
	}
	if *flightDir != "" {
		attest.Metrics().SetFlightDir(*flightDir)
		fmt.Printf("flight recorder: dumps to %s on session failure\n", *flightDir)
	}
	if *profileDir != "" {
		attest.Metrics().SetProfileDir(*profileDir)
		if *profileInterval > 0 {
			stopProf := attest.Metrics().Profiler.Start(*profileInterval)
			defer stopProf()
		}
		fmt.Printf("profiler: capture ring in %s (alert-triggered; periodic every %s), index at /debug/profiles\n",
			*profileDir, *profileInterval)
	}
	slo := attest.Metrics().Health.SLO()
	slo.MaxRTTP95 = *sloRTT
	slo.MaxFNR = *sloFNR
	slo.MinSeedBudget = *sloBudget
	// SetSLO re-derives the burn-rate alert rules along with the health
	// judgement, so /alerts and /devices agree on what "healthy" means.
	attest.Metrics().SetSLO(slo)

	params := swatt.Params{MemWords: *memWords, Chunks: *chunks, BlocksPerChunk: *blocks, PRG: swatt.PRGMix32}
	dev, err := core.NewDevice(core.MustNewDesign(core.DefaultConfig()), rng.New(*seed), *chip)
	check(err)

	if *enroll > 0 || *compact || *reenroll > 0 {
		check(storeAdmin(*storeDir, *enroll, *compact, *reenroll, dev))
		return
	}
	var budget attest.SeedBudget
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.DefaultOptions())
		check(err)
		defer st.Close()
		budget = st
		// The simulated device must run the epoch the store was enrolled
		// at, or every session fails closed with an epoch mismatch.
		dev.SetEpoch(st.Epoch())
		fmt.Printf("crp store: %s — epoch %d, %d of %d seeds remaining, %d WAL record(s) replayed\n",
			*storeDir, st.Epoch(), st.Remaining(), st.Len(), st.WALRecords())
		if st.Retired() {
			fmt.Printf("crp store: epoch %d RETIRED, awaiting re-enrollment at epoch %d (run -reenroll)\n",
				st.Epoch(), st.AwaitingEpoch())
		}
	}

	payload := make([]uint32, 512)
	paySrc := rng.New(*seed).Sub("payload")
	for i := range payload {
		payload[i] = paySrc.Uint32()
	}
	image, err := swatt.BuildImage(params, payload)
	check(err)
	prover, v, err := attest.NewPair(dev, image)
	check(err)
	if budget != nil {
		v.WithSeedBudget(budget)
	}
	if *infect {
		for i := 0; i < 64; i++ {
			prover.Image.Mem[image.Layout.PayloadAddr+i] ^= 0xFF
		}
		fmt.Println("prover memory tampered: 64 payload words flipped")
	}

	plan := attest.FaultPlan{
		Drop: *faultDrop, Corrupt: *faultCorr, Truncate: *faultTrunc,
		Delay: *faultDelay, Duplicate: *faultDup, Jitter: *faultJit,
		DelaySeconds: *faultDelayS, JitterSeconds: *faultJitS, MaxFaults: *faultMax,
	}
	faulty := plan.Drop > 0 || plan.Corrupt > 0 || plan.Truncate > 0 || plan.Delay > 0 || plan.Duplicate > 0 || plan.Jitter > 0
	policy := attest.DefaultRetryPolicy()
	policy.MaxAttempts = *retries
	policy.AttemptTimeout = *attemptTO

	switch *mode {
	case "local":
		link := attest.DefaultLink()
		fmt.Printf("device: chip %d, clock %.1f MHz, δ = %.4fs, link %s\n",
			dev.ChipID(), prover.FreqHz/1e6, v.Delta(), link)
		var agent attest.ProverAgent = prover
		if faulty {
			fl := attest.NewFaultyLink(prover, plan, *faultSeed)
			if *faultLog {
				fl.SetLog(os.Stderr)
			}
			agent = fl
			fmt.Printf("lossy link: %+v (seed %d)\n", plan, *faultSeed)
		}
		for i := 0; i < *sessions; i++ {
			res, attempts, err := attest.RunSessionRetry(context.Background(), v, agent, link, policy)
			check(err)
			report(i, attempts, res)
		}
	case "prove":
		srv := &attest.Server{
			Agent:   prover,
			Timeout: *serveTO,
			OnError: func(err error) { fmt.Fprintln(os.Stderr, "pufatt-attest: prover:", err) },
		}
		addr, err := srv.Start(*listen)
		check(err)
		defer srv.Close()
		fmt.Printf("prover (chip %d, %.1f MHz) listening on %s\n", dev.ChipID(), prover.FreqHz/1e6, addr)
		select {} // serve forever
	case "verify":
		inj := attest.NewFaultInjector(plan, *faultSeed)
		if *faultLog {
			inj.SetLog(os.Stderr)
		}
		dial := func() (net.Conn, error) {
			conn, err := net.Dial("tcp", *connect)
			if err != nil {
				return nil, err
			}
			if faulty {
				return inj.Wrap(conn), nil
			}
			return conn, nil
		}
		fmt.Printf("verifier targeting %s, δ = %.4fs, %d attempt(s)/session\n", *connect, v.Delta(), policy.MaxAttempts)
		for i := 0; i < *sessions; i++ {
			res, attempts, err := attest.RequestWithRetry(context.Background(), dial, v, attest.DefaultLink(), policy)
			check(err)
			report(i, attempts, res)
		}
		if faulty {
			fmt.Printf("faults injected: %v\n", inj.Counts())
		}
	default:
		fmt.Fprintf(os.Stderr, "pufatt-attest: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

func report(i, attempts int, res attest.Result) {
	verdict := "REJECTED"
	if res.Accepted {
		verdict = "accepted"
	}
	fmt.Printf("session %d: %s in %d attempt(s) (elapsed %.4fs, δ %.4fs) %s\n",
		i+1, verdict, attempts, res.Elapsed, res.Delta, res.Reason)
}

// storeAdmin handles the one-shot store maintenance modes: -enroll writes
// a fresh durable enrollment, -compact folds the claim WAL into the
// snapshot, -reenroll cuts the store over to the next reconfiguration
// epoch. All exit without running sessions.
func storeAdmin(dir string, enroll int, compact bool, reenroll int, dev *core.Device) error {
	if dir == "" {
		return fmt.Errorf("-enroll, -compact and -reenroll require -store-dir")
	}
	if enroll > 0 {
		seeds := make([]uint64, enroll)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		st, err := store.Enroll(dir, dev, seeds, 0, store.DefaultOptions())
		if err != nil {
			return err
		}
		defer st.Close()
		fmt.Printf("enrolled %d seeds for chip %d into %s\n", enroll, dev.ChipID(), dir)
		return nil
	}
	st, err := store.Open(dir, store.DefaultOptions())
	if err != nil {
		return err
	}
	defer st.Close()
	if reenroll > 0 {
		old := st.Epoch()
		next := old + 1
		if aw := st.AwaitingEpoch(); aw > next {
			next = aw
		}
		dev.SetEpoch(next)
		seeds := make([]uint64, reenroll)
		for i := range seeds {
			seeds[i] = uint64(next)<<32 | uint64(i+1)
		}
		if err := st.Reenroll(dev, seeds, 0); err != nil {
			return err
		}
		fmt.Printf("re-enrolled %s: epoch %d -> %d, %d fresh seeds (old epoch retired)\n",
			dir, old, next, reenroll)
		return nil
	}
	before := st.WALRecords()
	if err := st.Compact(); err != nil {
		return err
	}
	fmt.Printf("compacted %s: %d WAL record(s) folded into the snapshot, %d of %d seeds remaining\n",
		dir, before, st.Remaining(), st.Len())
	return nil
}

// runFederate runs the multi-verifier federation endpoint: parse the
// name=url source list, scrape every source at the history interval, and
// re-serve the merged observability surface (series, devices, alerts,
// health — each record labeled with its source) on addr. Blocks forever.
func runFederate(addr, spec string, interval time.Duration) error {
	if addr == "" {
		return fmt.Errorf("-federate requires -metrics-addr to serve the merged view on")
	}
	var sources []telemetry.ScrapeSource
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, url, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("-federate: bad source %q, want name=http://host:port", pair)
		}
		sources = append(sources, telemetry.ScrapeSource{
			Name: strings.TrimSpace(name), BaseURL: strings.TrimSpace(url),
		})
	}
	fed, err := telemetry.NewFederator(sources)
	if err != nil {
		return err
	}
	// A source that has not answered for three intervals is a blind spot;
	// surface it rather than serving its last body as if it were fresh.
	fed.SetStaleAfter(3 * interval)

	bound, closeSrv, err := telemetry.Serve(addr, fed.Mux())
	if err != nil {
		return err
	}
	defer closeSrv()

	ctx, cancel := context.WithTimeout(context.Background(), interval)
	ok := fed.Poll(ctx)
	cancel()
	stop := fed.Start(interval)
	defer stop()
	fmt.Printf("federating %d source(s) on http://%s (merged /metrics/history, /devices, /alerts, /healthz; scrape health at /federation) — %d reachable\n",
		len(sources), bound, ok)
	select {} // serve forever
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pufatt-attest:", err)
		os.Exit(1)
	}
}
