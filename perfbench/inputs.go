package main

import (
	"fmt"
	"os"
	"path/filepath"

	"aqlsched/internal/sim"
	"aqlsched/internal/sweep"
)

// defaultSeed is the workload seed that keeps every spec's own seeds;
// the batch workloads' artifact digests are pinned at it (pins.go).
const defaultSeed = 0

// specSource names one sweep spec: a built-in sweep or a committed spec
// file (relative to the repository root).
type specSource struct {
	Builtin string
	File    string
}

func (s specSource) String() string {
	if s.Builtin != "" {
		return s.Builtin
	}
	return filepath.Base(s.File)
}

// batchSources are the specs each batch workload runs, in order.
var batchSources = map[string][]specSource{
	"paper-grid": {{Builtin: "quantum-grid"}, {Builtin: "baseline-grid"}},
	"fleet-dc":   {{File: "examples/specs/fleet.json"}, {File: "examples/specs/faultfleet.json"}},
}

// daemonSources are the specs daemon-mix jobs draw from.
var daemonSources = []specSource{
	{File: "examples/specs/genmix.json"},
	{File: "examples/specs/hetero.json"},
	{File: "examples/specs/dynmix.json"},
}

// baseSeedFor maps a workload seed to the sweeps' base seed: the default
// seed keeps the specs' own (0 means "the spec's default" to the sweep
// layer); any other seed picks a fresh one.
func baseSeedFor(seed uint64) uint64 {
	if seed == defaultSeed {
		return 0
	}
	return sim.NewRNG(seed).Uint64() | 1
}

// daemonSeedPool is the small pool of base seeds daemon-mix jobs draw
// from, fixed by the workload seed.
func daemonSeedPool(seed uint64) []uint64 {
	r := sim.NewRNG(seed ^ 0xDAE)
	pool := make([]uint64, 4)
	for i := range pool {
		pool[i] = r.Uint64()%100000 + 1
	}
	return pool
}

// jobInput is one daemon-mix job: a spec and a base seed.
type jobInput struct {
	Source   int    // index into daemonSources
	BaseSeed uint64 // never 0
}

// daemonJob is the k-th job of client c. The spec rotates so that every
// client sees the same mix; the base seed is drawn from the pool.
func daemonJob(seed uint64, c, k int) jobInput {
	pool := daemonSeedPool(seed)
	r := sim.NewRNG(seed).Fork(uint64(c)<<32 | uint64(k))
	return jobInput{Source: (c + k) % len(daemonSources), BaseSeed: pool[r.Uint64()%uint64(len(pool))]}
}

// loadSpec is the program's set-up for one sweep: read the spec, parse
// it (which resolves every catalog name), apply the base seed, validate
// it and expand its run matrix. It also returns the spec source bytes
// for the journal manifest.
func loadSpec(root string, src specSource, baseSeed uint64) (*sweep.Spec, []byte, error) {
	var (
		spec *sweep.Spec
		raw  []byte
	)
	if src.Builtin != "" {
		s, ok := sweep.Builtin(src.Builtin)
		if !ok {
			return nil, nil, fmt.Errorf("unknown built-in sweep %q", src.Builtin)
		}
		spec = s
	} else {
		data, err := os.ReadFile(filepath.Join(root, src.File))
		if err != nil {
			return nil, nil, err
		}
		if spec, err = sweep.Parse(data); err != nil {
			return nil, nil, err
		}
		raw = data
	}
	if baseSeed != 0 {
		spec.BaseSeed = baseSeed
	}
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	spec.Runs()
	return spec, raw, nil
}
