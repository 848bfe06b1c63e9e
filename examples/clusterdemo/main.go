// Distributed verification: three shards, one leader killed, zero
// duplicate claims.
//
// A single verifier is a single point of failure and a single claim log.
// The cluster tier shards devices across verifiers with a consistent-hash
// ring, replicates each device's seed-claim log to its replica set before
// any seed is released (log-before-acknowledge), and fails over to a
// caught-up replica when a shard dies — refusing, typed ErrStaleReplica,
// to promote one whose log is behind.
//
// This demo builds a 3-shard cluster over 12 simulated PUF devices,
// sweeps the fleet once, kills the busiest shard, sweeps again (every
// route through the dead shard fails over automatically), and then runs
// the merged claim-log audit: replica logs must be prefixes of one
// history and no seed may ever be claimed twice. A synthetic canary
// prober then runs one end-to-end attestation session against every
// shard — on an isolated seed budget, so it can never burn production
// seeds — proving the live shards protocol-correct and flagging the dead
// one. It finishes by starting the admin surface and fetching /ring (the
// placement view) and /probes (the canary view) from it.
//
//	go run ./examples/clusterdemo
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"

	"pufatt/internal/attest"
	"pufatt/internal/attest/cluster"
	"pufatt/internal/core"
	"pufatt/internal/rng"
	"pufatt/internal/swatt"
	"pufatt/internal/telemetry"
)

const devices = 12

func main() {
	c, err := cluster.New(cluster.Config{
		Shards:       []string{"shard-0", "shard-1", "shard-2"},
		VNodes:       64,
		Replicas:     3,
		AutoFailover: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	design := core.MustNewDesign(core.DefaultConfig())
	params := swatt.Params{MemWords: 512, Chunks: 2, BlocksPerChunk: 2, PRG: swatt.PRGMix32}
	image, err := swatt.BuildImage(params, make([]uint32, 64))
	if err != nil {
		log.Fatal(err)
	}
	link := attest.DefaultLink()

	fmt.Printf("== enrolling %d devices across 3 shards\n", devices)
	for id := 0; id < devices; id++ {
		dev, err := core.NewDevice(design, rng.New(uint64(id)+1), id)
		if err != nil {
			log.Fatal(err)
		}
		seeds := make([]uint64, 16)
		for k := range seeds {
			seeds[k] = uint64(id)<<16 | uint64(k+1)
		}
		enr, err := cluster.NewEnrollment(dev, seeds)
		if err != nil {
			log.Fatal(err)
		}
		g, err := c.Enroll(enr)
		if err != nil {
			log.Fatal(err)
		}
		// The emulator model answers the checksum's derived challenges; the
		// Group is the replicated budget every session's x0 claims through.
		prover, v, err := attest.NewPair(dev, image)
		if err != nil {
			log.Fatal(err)
		}
		v.WithSeedBudget(g)
		v.Nonces = rng.New(uint64(id)*7 + 3).Uint32
		v.AllowNetwork(link)
		if err := c.Bind(id, v, prover, link); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   device %2d -> replicas %v\n", id, g.Replicas())
	}

	// The cluster is a device set: the fleet sweeps it with its worker
	// pool and circuit breaker, recording into the cluster's telemetry.
	fleet := attest.NewFleetOver(c, c.Telemetry())
	policy := attest.RetryPolicy{MaxAttempts: 3, JitterSeed: 42}
	sweep := func(label string) {
		report := fleet.Sweep(context.Background(), policy)
		fmt.Printf("== %s: %s; quarantined %v\n", label, report, fleet.Quarantined())
	}

	sweep("sweep 1 (all shards up)")

	// Kill the shard leading the most devices — the worst-case failover.
	lead := busiestLeader(c)
	fmt.Printf("== killing %s (leads the most devices)\n", lead)
	if err := c.Kill(lead); err != nil {
		log.Fatal(err)
	}

	sweep("sweep 2 (leader dead, auto-failover)")

	audit := c.AuditClaims()
	fmt.Printf("== claim-log audit: devices=%d frames=%d dead=%v clean=%v\n",
		audit.Devices, audit.Frames, audit.DeadShards, audit.Clean())
	if !audit.Clean() {
		for _, v := range audit.Violations {
			fmt.Println("   VIOLATION:", v)
		}
		log.Fatal("audit not clean")
	}

	// Synthetic canary probing: each shard gets its own canary device on a
	// private seed budget — isolated from every enrolled device — and runs
	// a real end-to-end attestation session through that shard's admission
	// gate. A shard with zero organic traffic still gets a verdict; the
	// dead shard's canary reports an error instead of silence.
	prober, err := cluster.NewProber(c, cluster.ProberConfig{})
	if err != nil {
		log.Fatal(err)
	}
	prober.ProbeAll(context.Background())
	fmt.Println("== canary probes (one synthetic session per shard)")
	for _, st := range prober.Status() {
		fmt.Printf("   %s alive=%-5v verdict=%-8s rtt=%.4fs seeds-left=%d %s\n",
			st.Shard, st.Alive, st.LastVerdict, st.LastRTTSeconds, st.SeedsRemaining, st.LastReason)
	}

	// The admin surface: /ring is the placement view, /cluster the
	// per-device replication state, /probes the canary statuses.
	addr, closeAdmin, err := telemetry.Serve("127.0.0.1:0", cluster.AdminMux(c, nil))
	if err != nil {
		log.Fatal(err)
	}
	defer closeAdmin()
	resp, err := http.Get("http://" + addr.String() + "/ring")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("== GET /ring\n%s", body)
}

// busiestLeader finds the shard currently leading the most devices.
func busiestLeader(c *cluster.Cluster) string {
	counts := map[string]int{}
	for _, id := range c.Devices() {
		if lead, err := c.Group(id).Leader(); err == nil {
			counts[lead]++
		}
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if counts[names[i]] != counts[names[j]] {
			return counts[names[i]] > counts[names[j]]
		}
		return names[i] < names[j]
	})
	return names[0]
}
