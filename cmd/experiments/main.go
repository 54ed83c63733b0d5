// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulator and prints them as text tables.
//
// Usage:
//
//	experiments [-quick] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"aqlsched/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced measurement windows and sweeps")
	seed := flag.Uint64("seed", experiments.DefaultConfig().Seed, "simulation seed")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Seed = *seed

	start := time.Now()
	experiments.All(cfg, os.Stdout)
	fmt.Printf("regenerated full evaluation in %v\n", time.Since(start).Round(time.Millisecond))
}
