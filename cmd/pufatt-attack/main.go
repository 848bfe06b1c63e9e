// Command pufatt-attack runs the Section 4.2 adversary suite against a
// freshly manufactured device and prints each attack's outcome: memory-copy
// forgery, overclocked forgery, PUF-oracle proxying, machine-learning
// modeling, and the overclocking corruption sweep. Training sets and
// oracle queries come from the gate-level device model.
//
// Usage:
//
//	pufatt-attack                      # full suite
//	pufatt-attack -fast -games         # reduced datasets, plus the game-based experiments
//	pufatt-attack -fast -workers 2     # bound the batch-evaluation fan-out
package main

import (
	"flag"
	"fmt"
	"os"

	"pufatt/internal/buildinfo"
	"pufatt/internal/experiments"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 1, "device manufacturing seed")
		fast    = flag.Bool("fast", false, "reduced dataset sizes")
		games   = flag.Bool("games", false, "also run the game-based soundness experiments")
		trials  = flag.Int("trials", 25, "trials per strategy for -games")
		workers = flag.Int("workers", 0, "PUF batch-evaluation workers (0 = GOMAXPROCS)")
	)
	version := buildinfo.VersionFlags("pufatt-attack")
	flag.Parse()
	version()
	cfg := experiments.DefaultSecurityConfig(*seed)
	cfg.Workers = *workers
	if *fast {
		cfg.MLTrain = 1000
		cfg.MLTest = 200
		cfg.OverclockTrials = 40
	}
	res, err := experiments.RunSecuritySuite(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pufatt-attack:", err)
		os.Exit(1)
	}
	fmt.Println(res.Format())
	if !res.Sane() {
		fmt.Fprintln(os.Stderr, "pufatt-attack: UNEXPECTED OUTCOME — an adversary succeeded or the honest prover failed")
		os.Exit(1)
	}
	fmt.Println("all adversaries rejected; honest prover accepted.")
	if *games {
		fmt.Println()
		report, err := experiments.SecurityGames(*seed, *trials)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pufatt-attack:", err)
			os.Exit(1)
		}
		fmt.Println(report.Format())
		if !report.CorrectnessHolds() || !report.SoundnessHolds() {
			fmt.Fprintln(os.Stderr, "pufatt-attack: game-based experiments failed")
			os.Exit(1)
		}
	}
}
