package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// pins.json pins, for the default seed and sizes, each workload's summary:
// verdict counts by class, the digest, the summed compute time and δ, and
// the per-op layer counts. It also names two held-out seeds, kept for
// checking a claimed gain on inputs the change was not written against.
//
//go:embed pins.json
var pinsJSON []byte

type pinFile struct {
	Seed         uint64             `json:"seed"`
	HeldOutSeeds []uint64           `json:"held_out_seeds"`
	Workloads    map[string]summary `json:"workloads"`
}

var pins = func() pinFile {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("bench: pins.json: " + err.Error()) // embedded at build time
	}
	return p
}()

// checkPins compares a run's summary with the pinned one. On a mismatch it
// reports the observed summary, ready to be pinned if the change in
// behaviour is intended.
func checkPins(name string, got summary) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	want, ok := pins.Workloads[name]
	if !ok {
		return fmt.Errorf("no pinned summary for %s: observed %s", name, g)
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(g) != string(w) {
		return fmt.Errorf("pinned checks differ: observed %s, pinned %s", g, w)
	}
	return nil
}
