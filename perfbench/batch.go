package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"aqlsched/internal/fleet"
	"aqlsched/internal/sweep"
)

// batch runs paper-grid or fleet-dc: each pass runs the workload's specs
// as `aqlsweep -out` does (sweep.Exec with the journal on, then the
// artifacts), one spec after the other.
type batch struct {
	root, work   string
	sources      []specSource
	baseSeed     uint64
	workers      int // sweep.Options.Workers
	fleetWorkers int // sweep.Options.FleetWorkers
	passes       int // passes started, for unique directories
}

// cellRec is one executed cell as seen from outside the sweep.
type cellRec struct {
	elapsed time.Duration
	fleet   bool
	failed  bool
	counts  cellCounts // instrumented passes only
}

// specRun is one spec's share of a pass.
type specRun struct {
	digest    string // sha256 over the JSON and CSV artifacts
	counts    cellCounts
	okCells   int // cells that did not fail
	records   int // Journal.Record calls (traced passes)
	execWall  time.Duration
	aggregate time.Duration // Exec return minus the end of the last OnRun
	emit      time.Duration // WriteArtifacts
}

// passStats is one pass over the workload's specs.
type passStats struct {
	wall, first time.Duration
	cpu         time.Duration // process CPU time
	cells       []cellRec
	specs       []specRun
	recordMS    []float64 // per Journal.Record (traced passes)
	placements  float64
	migrations  float64
	alloc       uint64
}

// setupOnce loads every spec of the workload.
func (b *batch) setupOnce() error {
	for _, src := range b.sources {
		if _, _, err := loadSpec(b.root, src, b.baseSeed); err != nil {
			return err
		}
	}
	return nil
}

// pass runs the workload once. instrumented installs the scheduler
// probes (exact counts); a non-nil tracer additionally records spans and
// moves each journal write into OnRun so that it gets its own span.
func (b *batch) pass(instrumented bool, tr *tracer) (*passStats, error) {
	b.passes++
	dir := filepath.Join(b.work, fmt.Sprintf("pass-%d", b.passes))
	defer os.RemoveAll(dir)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	ps := &passStats{}
	var artifacts [][]string
	start, cpu0 := time.Now(), cpuTime()
	passSpan := tr.begin("pass", strconv.Itoa(b.passes), 0)
	for _, src := range b.sources {
		sp := tr.begin("spec.load", src.String(), passSpan)
		spec, raw, err := loadSpec(b.root, src, b.baseSeed)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		var probes *probeSet
		if instrumented {
			probes = instrument(spec)
		}
		jl, err := sweep.CreateJournal(filepath.Join(dir, spec.Name+".journal"), sweep.NewManifest(spec, raw, src.Builtin))
		if err != nil {
			return nil, err
		}
		var (
			sr      specRun
			lastRun time.Time
			mu      sync.Mutex // OnRun calls are serialized; this orders them with the reads below
		)
		execSpan := tr.begin("sweep.Exec", spec.Name, passSpan)
		opts := sweep.Options{Workers: b.workers, FleetWorkers: b.fleetWorkers}
		if tr == nil {
			opts.Journal = jl
		}
		opts.OnRun = func(rr *sweep.RunResult) {
			mu.Lock()
			defer mu.Unlock()
			now := time.Now()
			if ps.first == 0 {
				ps.first = now.Sub(start)
			}
			c := cellRec{elapsed: rr.Elapsed, failed: rr.Err != nil, fleet: spec.Scenarios[rr.ScenarioIdx].NewFleet != nil}
			if rr.Err == nil {
				sr.okCells++
			}
			if probes != nil {
				c.counts = probes.take(rr)
				sr.counts.add(c.counts)
			}
			if v, ok := rr.Metrics.Get("fleet_placements"); ok {
				ps.placements += v
			}
			if v, ok := rr.Metrics.Get("fleet_migrations"); ok {
				ps.migrations += v
			}
			if tr != nil {
				key := spec.Name + "/" + strconv.Itoa(rr.Index)
				tr.add(span{Parent: execSpan, Name: "cell", Key: key,
					StartNS: tr.at(now.Add(-rr.Elapsed)), EndNS: tr.at(now),
					Calls: c.counts.SchedCalls, CallSelf: c.counts.SchedSelfNS})
				if rr.Err == nil {
					js := tr.begin("journal.Record", key, execSpan)
					t0 := time.Now()
					err := jl.Record(rr)
					ps.recordMS = append(ps.recordMS, ms(time.Since(t0)))
					tr.end(js)
					sr.records++
					if err != nil {
						c.failed = true
					}
				}
			}
			ps.cells = append(ps.cells, c)
			lastRun = time.Now()
		}
		execStart := time.Now()
		res, err := sweep.Exec(spec, opts)
		execEnd := time.Now()
		tr.end(execSpan)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		sr.execWall = execEnd.Sub(execStart)
		sr.aggregate = execEnd.Sub(lastRun)
		mu.Unlock()
		es := tr.begin("emit", spec.Name, passSpan)
		t0 := time.Now()
		paths, err := res.WriteArtifacts(dir)
		sr.emit = time.Since(t0)
		tr.end(es)
		if err != nil {
			return nil, err
		}
		artifacts = append(artifacts, paths)
		ps.specs = append(ps.specs, sr)
	}
	ps.wall, ps.cpu = time.Since(start), cpuTime()-cpu0
	tr.end(passSpan)
	runtime.ReadMemStats(&m1)
	ps.alloc = m1.TotalAlloc - m0.TotalAlloc

	for i, paths := range artifacts {
		d, err := digestArtifacts(paths)
		if err != nil {
			return nil, err
		}
		ps.specs[i].digest = d
	}
	return ps, nil
}

// digestArtifacts hashes the JSON and CSV artifacts (the text table is
// rendered from the same aggregates).
func digestArtifacts(paths []string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		if ext := filepath.Ext(p); ext != ".json" && ext != ".csv" {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// shardSpeedup times fleet.Run on the first cell of the workload's first
// fleet spec at one worker and at nproc workers.
func (b *batch) shardSpeedup(nproc int) (float64, error) {
	spec, _, err := loadSpec(b.root, b.sources[0], b.baseSeed)
	if err != nil {
		return 0, err
	}
	run := spec.Runs()[0]
	build := spec.Scenarios[run.ScenarioIdx].NewFleet
	if build == nil {
		return 0, nil
	}
	base := spec.BaseSeed
	if base == 0 {
		base = sweep.DefaultSeed
	}
	timeRun := func(workers int) time.Duration {
		fs := build()
		fs.Seed = run.Seed
		if fs.GenSeed == 0 {
			fs.GenSeed = base // as sweep.Exec pins a fleet cell's population
		}
		if spec.Warmup > 0 {
			fs.Warmup = spec.Warmup
		}
		if spec.Measure > 0 {
			fs.Measure = spec.Measure
		}
		t0 := time.Now()
		fleet.Run(*fs, fleet.Options{NewPolicy: spec.Policies[run.PolicyIdx].New, Workers: workers})
		return time.Since(t0)
	}
	serial := timeRun(1)
	return float64(serial) / float64(timeRun(nproc)), nil
}
