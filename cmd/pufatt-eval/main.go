// Command pufatt-eval regenerates the paper's evaluation artifacts: the
// inter-chip histogram of Figure 3, the intra-chip/corner analysis of
// Figure 4, the Table 1 resource comparison, the Section 4.1 FPGA
// two-board measurement, and the Section 4.2 security suite. Batch
// experiments run the 64-lane bitsliced gate-level pass; -workers bounds
// its fan-out and never changes the output.
//
// Usage:
//
//	pufatt-eval -exp fig3 -n 1000000        # full-scale Figure 3
//	pufatt-eval -exp all -n 20000           # everything, reduced scale
//	pufatt-eval -exp fig4 -n 200000 -workers 8   # parallel batch evaluation
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pufatt/internal/buildinfo"
	"pufatt/internal/core"
	"pufatt/internal/experiments"
	"pufatt/internal/fpga"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig3, fig4, fnr, table1, fpga, security, all")
		n       = flag.Int("n", 20000, "challenges per experiment (paper: 1000000)")
		chips   = flag.Int("chips", 2, "simulated chips for figure 3")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		hist    = flag.Bool("hist", false, "print full histograms")
		workers = flag.Int("workers", 0, "PUF batch-evaluation workers (0 = GOMAXPROCS)")
	)
	version := buildinfo.VersionFlags("pufatt-eval")
	flag.Parse()
	version()
	run := func(name string, fn func() (string, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		out, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pufatt-eval: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %.1fs]\n\n", name, time.Since(start).Seconds())
	}

	run("fig3", func() (string, error) {
		r, err := experiments.Figure3(core.DefaultConfig(), *chips, *n, *seed, *workers)
		if err != nil {
			return "", err
		}
		return r.Format(*hist), nil
	})
	run("fig4", func() (string, error) {
		r, err := experiments.Figure4(core.DefaultConfig(), *n, *seed, *workers)
		if err != nil {
			return "", err
		}
		return r.Format(*hist), nil
	})
	run("fnr", func() (string, error) {
		r, err := experiments.FNRMonteCarlo(core.DefaultConfig(), *n, 5, *seed, *workers)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	run("table1", func() (string, error) {
		return experiments.Table1Report(16)
	})
	run("fpga", func() (string, error) {
		r, err := experiments.FPGAMeasurement(fpga.DefaultConfig(), *n, *seed)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
	run("security", func() (string, error) {
		r, err := experiments.RunSecuritySuite(experiments.DefaultSecurityConfig(*seed))
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	})
}
