package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

func runBatch(cfg config) (*outcome, error) {
	b := &batch{
		root:     cfg.root,
		work:     cfg.work,
		sources:  batchSources[cfg.workload],
		baseSeed: baseSeedFor(cfg.seed),
		workers:  cfg.nproc,
	}
	if cfg.workload == "fleet-dc" {
		// Cells one at a time, each sharded across every core.
		b.workers, b.fleetWorkers = 1, cfg.nproc
	}
	out := &outcome{values: map[string]float64{}}

	if err := b.setupOnce(); err != nil {
		return nil, err
	}
	setups, err := setupTimes(b.setupOnce)
	if err != nil {
		return nil, err
	}

	// The census pass is untimed: it gives the reference artifact
	// digests, the exact counts and the simulated vCPU-seconds per pass.
	census, err := b.pass(true, nil)
	if err != nil {
		return nil, err
	}
	out.checkCensus(cfg, census)
	resetPeakRSS()

	dur := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		passes, err := b.timed(dur, false, nil)
		if err != nil {
			return nil, err
		}
		out.checkPasses(census, passes, false)
		batchEndToEnd(out, setups, census, passes)
		return out, nil
	}

	untraced, err := b.timed(dur/2, false, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := b.timed(dur/2, true, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	out.checkPasses(census, untraced, false)
	out.checkPasses(census, traced, true)
	speedup := 0.0
	if cfg.workload == "fleet-dc" {
		if speedup, err = b.shardSpeedup(cfg.nproc); err != nil {
			return nil, err
		}
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if err := saveTrace(cfg, tr); err != nil {
		return nil, err
	}
	batchPerLayer(out, b, setups, census, untraced, traced, speedup, shares)
	return out, nil
}

// timed runs passes until d has elapsed (at least one).
func (b *batch) timed(d time.Duration, instrumented bool, tr *tracer) ([]*passStats, error) {
	var passes []*passStats
	deadline := time.Now().Add(d)
	for len(passes) == 0 || time.Now().Before(deadline) {
		p, err := b.pass(instrumented, tr)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

func (o *outcome) checkCensus(cfg config, census *passStats) {
	for _, c := range census.cells {
		if c.failed {
			o.fail("census pass: a cell failed")
		}
	}
	if cfg.seed != defaultSeed {
		return
	}
	want := pinned[cfg.workload]
	if len(want) != len(census.specs) {
		o.fail("no pinned digests for %s", cfg.workload)
		return
	}
	for i, sr := range census.specs {
		if sr.digest != want[i].Digest {
			o.fail("%s spec %d: artifact digest %s, pinned %s", cfg.workload, i, sr.digest, want[i].Digest)
		}
		if sr.counts.Events != want[i].Counts.Events || sr.counts.Dispatches != want[i].Counts.Dispatches ||
			sr.counts.Preemptions != want[i].Counts.Preemptions || sr.counts.SchedCalls != want[i].Counts.SchedCalls {
			o.fail("%s spec %d: counts %+v, pinned %+v", cfg.workload, i, sr.counts, want[i].Counts)
		}
	}
}

// checkPasses compares every pass with the census: artifacts must be
// byte-identical and, in traced passes, the exact counts must repeat.
func (o *outcome) checkPasses(census *passStats, passes []*passStats, traced bool) {
	for _, p := range passes {
		o.attempted += len(p.cells)
		for _, c := range p.cells {
			if c.failed {
				o.fail("a cell failed")
			}
		}
		for i, sr := range p.specs {
			ref := census.specs[i]
			if sr.digest != ref.digest {
				o.fail("spec %d: artifacts differ from the census pass (traced=%v)", i, traced)
			}
			if !traced {
				continue
			}
			if sr.counts.Events != ref.counts.Events || sr.counts.Dispatches != ref.counts.Dispatches ||
				sr.counts.SchedCalls != ref.counts.SchedCalls {
				o.fail("spec %d: traced counts %+v differ from the census %+v", i, sr.counts, ref.counts)
			}
			if sr.records != ref.okCells {
				o.fail("spec %d: %d journal records, the census journaled %d cells", i, sr.records, ref.okCells)
			}
		}
	}
}

func batchEndToEnd(o *outcome, setups []float64, census *passStats, passes []*passStats) {
	var walls, cpus, firsts, cells, allocs []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, ms(p.cpu))
		firsts = append(firsts, ms(p.first))
		allocs = append(allocs, float64(p.alloc)/1e6)
		for _, c := range p.cells {
			cells = append(cells, ms(c.elapsed))
		}
	}
	vcpuS := 0.0
	for _, sr := range census.specs {
		vcpuS += sr.counts.VCPUSeconds
	}
	// Throughput from the median pass, so that one pass slowed by a
	// neighbour on the machine does not move it.
	wall := median(walls)
	cellsPerPass := float64(len(cells)) / float64(len(passes))
	v := o.values
	v["setup_s"] = median(setups)
	v["cpu_ms_per_cell"] = median(cpus) / cellsPerPass
	v["alloc_mb"] = median(allocs)
	v["peak_rss_mb"] = peakRSSMB()
	v["ok_frac"] = 1 - ratio(float64(min(o.failed, o.attempted)), float64(o.attempted))

	o.note("setup_s", v["setup_s"], "s", len(setups))
	o.note("wall_s", wall, "s", len(walls))
	o.note("cells_per_s", cellsPerPass/wall, "1/s", len(walls))
	o.note("sim_vcpu_s_per_s", vcpuS/wall, "vcpu_s/s", len(walls))
	o.note("cell_p50_ms", quantile(cells, 0.5), "ms", len(cells))
	o.note("cell_p90_ms", quantile(cells, 0.9), "ms", len(cells))
	o.note("first_result_ms", median(firsts), "ms", len(firsts))
	o.note("cpu_ms_per_cell", v["cpu_ms_per_cell"], "ms", len(cpus))
	o.note("alloc_mb", v["alloc_mb"], "MB/pass", len(allocs))
	o.note("peak_rss_mb", v["peak_rss_mb"], "MB", 0)
	o.note("failed_frac", 1-v["ok_frac"], "frac", o.attempted)
}

func batchPerLayer(o *outcome, b *batch, setups []float64, census *passStats, untraced, traced []*passStats, speedup float64, shares map[string]float64) {
	var cc cellCounts
	for _, sr := range census.specs {
		cc.add(sr.counts)
	}
	var untracedNS, untracedWall []float64
	for _, p := range untraced {
		untracedWall = append(untracedWall, p.wall.Seconds())
		for _, c := range p.cells {
			untracedNS = append(untracedNS, float64(c.elapsed))
		}
	}
	var (
		tracedWall, selfMS, fleetMS, aggMS, emitMS, scenarioMS, recordMS []float64
		busy, capacity                                                   float64
		records                                                          int
	)
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall.Seconds())
		recordMS = append(recordMS, p.recordMS...)
		var self, fl float64
		for _, c := range p.cells {
			self += float64(c.counts.SchedSelfNS) / 1e6
			busy += float64(c.elapsed)
			if c.fleet {
				fl += ms(c.elapsed)
			} else {
				scenarioMS = append(scenarioMS, ms(c.elapsed))
			}
		}
		var agg, emit float64
		records = 0
		for _, sr := range p.specs {
			agg += ms(sr.aggregate)
			emit += ms(sr.emit)
			capacity += float64(b.workers) * float64(sr.execWall)
			records += sr.records
		}
		selfMS = append(selfMS, self)
		fleetMS = append(fleetMS, fl)
		aggMS = append(aggMS, agg)
		emitMS = append(emitMS, emit)
	}
	v := o.values
	v["spec.parse_ms"] = median(setups) * 1e3
	v["sim.events"] = float64(cc.Events)
	v["sim.ns_per_event"] = ratio(sum(untracedNS), float64(len(untraced))*float64(cc.Events))
	v["xen.dispatches"] = float64(cc.Dispatches)
	v["xen.preemptions"] = float64(cc.Preemptions)
	v["credit.calls"] = float64(cc.SchedCalls)
	v["credit.self_ms"] = median(selfMS)
	v["scenario.run_ms_p50"] = quantile(scenarioMS, 0.5)
	v["scenario.run_ms_p90"] = quantile(scenarioMS, 0.9)
	v["fleet.run_ms"] = median(fleetMS)
	v["fleet.shard_speedup"] = speedup
	v["fleet.placements"] = census.placements
	v["fleet.migrations"] = census.migrations
	v["sweep.pool_busy_frac"] = ratio(busy, capacity)
	v["sweep.aggregate_ms"] = median(aggMS)
	v["sweep.emit_ms"] = median(emitMS)
	v["journal.records"] = float64(records)
	v["journal.record_ms_p50"] = quantile(recordMS, 0.5)
	v["journal.record_ms_p90"] = quantile(recordMS, 0.9)
	for _, n := range []string{"serve.boot_ms", "serve.submit_ms_p50", "serve.submit_ms_p90",
		"serve.queue_wait_ms_p50", "serve.queue_wait_ms_p90", "serve.exec_ms", "serve.stream_tail_ms",
		"fairshare.share_error"} {
		v[n] = 0
	}
	v["trace_overhead_frac"] = median(tracedWall)/median(untracedWall) - 1
	for _, bk := range cpuBuckets {
		v["cpu_share."+bk] = shares[bk]
	}
	o.note("passes_untraced", float64(len(untraced)), "count", 0)
	o.note("passes_traced", float64(len(traced)), "count", 0)
	for _, k := range sortedKeys(v) {
		o.note(k, v[k], "", 0)
	}
}

// saveTrace writes the spans under .bench_build/trace and prints the
// self-time table.
func saveTrace(cfg config, tr *tracer) error {
	dir := filepath.Join(cfg.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := tr.snapshot()
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	printSelfTimes(os.Stderr, spans)
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(spans), path)
	return nil
}
