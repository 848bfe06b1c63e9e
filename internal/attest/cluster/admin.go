package cluster

import (
	"fmt"
	"net/http"

	"pufatt/internal/attest"
	"pufatt/internal/telemetry"
)

// AdminMux extends the attestation admin surface (attest.AdminMux: metrics,
// history, alerts, traces, journal, health, pprof) with the cluster's
// routes:
//
//	/ring     the consistent-hash placement: per-shard ownership fractions,
//	          vnode counts, and liveness
//	/cluster  enrolled devices with their replica sets, current leaders,
//	          applied log sequences, and acknowledged high-water marks
//	/probes   per-shard synthetic canary statuses (empty array until a
//	          Prober is attached); ?shard= filters to one shard
//
// A nil Telemetry serves the package default (where the cluster metrics
// live).
func AdminMux(c *Cluster, t *attest.Telemetry) *http.ServeMux {
	mux := attest.AdminMux(t)
	serve := func(path string, fn http.HandlerFunc) {
		mux.HandleFunc(path, telemetry.GetOnly(telemetry.ContentJSON, fn))
	}
	serve("/ring", func(w http.ResponseWriter, _ *http.Request) {
		snap := c.ring.Snapshot()
		for i := range snap.Shards {
			snap.Shards[i].Alive = c.shardAlive(snap.Shards[i].Shard)
		}
		_ = telemetry.WriteJSON(w, snap)
	})
	serve("/cluster", func(w http.ResponseWriter, _ *http.Request) {
		_ = telemetry.WriteJSON(w, c.Snapshot())
	})
	serve("/probes", func(w http.ResponseWriter, r *http.Request) {
		var statuses []ProbeStatus
		if p := c.Prober(); p != nil {
			statuses = p.Status()
		}
		if shard := r.URL.Query().Get("shard"); shard != "" {
			if c.Shard(shard) == nil {
				http.Error(w, fmt.Sprintf("cluster: unknown shard %q", shard), http.StatusBadRequest)
				return
			}
			filtered := statuses[:0]
			for _, st := range statuses {
				if st.Shard == shard {
					filtered = append(filtered, st)
				}
			}
			statuses = filtered
		}
		if statuses == nil {
			// An empty array, not null: federation and dashboards treat the
			// body as a list unconditionally.
			statuses = []ProbeStatus{}
		}
		_ = telemetry.WriteJSON(w, statuses)
	})
	return mux
}

// GroupStatus is one device's row in the /cluster view.
type GroupStatus struct {
	Device        int               `json:"device"`
	Leader        string            `json:"leader"`
	HighWaterMark uint64            `json:"high_water_mark"`
	Remaining     int               `json:"remaining_seeds"`
	Epoch         uint32            `json:"epoch"`
	Applied       map[string]uint64 `json:"applied"`
}

// ClusterSnapshot is the /cluster view.
type ClusterSnapshot struct {
	Shards  []ShardOwnership `json:"shards"`
	Devices []GroupStatus    `json:"devices"`
}

// Snapshot captures the cluster's control-plane state for the admin view.
func (c *Cluster) Snapshot() ClusterSnapshot {
	snap := ClusterSnapshot{}
	ringSnap := c.ring.Snapshot()
	for i := range ringSnap.Shards {
		ringSnap.Shards[i].Alive = c.shardAlive(ringSnap.Shards[i].Shard)
	}
	snap.Shards = ringSnap.Shards
	for _, id := range c.Devices() {
		g := c.Group(id)
		if g == nil {
			continue
		}
		g.mu.Lock()
		lead := g.logs[g.replicas[g.leader]].ledger
		st := GroupStatus{
			Device:        g.device,
			Leader:        g.replicas[g.leader],
			HighWaterMark: g.hwm,
			Epoch:         lead.Epoch(),
			Remaining:     lead.Remaining(),
			Applied:       make(map[string]uint64, len(g.replicas)),
		}
		for _, sid := range g.replicas {
			st.Applied[sid] = g.logs[sid].applied()
		}
		g.mu.Unlock()
		snap.Devices = append(snap.Devices, st)
	}
	return snap
}
