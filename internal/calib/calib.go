// Package calib is the offline quantum-length calibration of
// Section 3.4: for each application type it measures performance under
// quantum lengths {1, 10, 30, 60, 90} ms with 2 and 4 vCPUs sharing a
// pCPU, normalizes over the Xen default (30 ms), and derives the best
// quantum per type — or flags the type as quantum-agnostic when the
// spread is insignificant.
//
// Colo builds the Section 3.4.1 colocation environment every such
// measurement runs in. The evaluation reuses it unchanged: Fig. 2
// (this package), Table 3's recognition census and Fig. 5's
// per-application quantum sweep all measure their subject in Colo.
//
// The paper automated this with a deployment framework (Roboconf) and a
// self-benchmarking tool (CLIF); here the same loop runs in-process on
// the simulator.
package calib

import (
	"fmt"
	"sort"

	"aqlsched/internal/baselines"
	"aqlsched/internal/cluster"
	"aqlsched/internal/hw"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/workload"
)

// Quanta is the paper's quantum-length discretization.
func Quanta() []sim.Time {
	return []sim.Time{
		1 * sim.Millisecond,
		10 * sim.Millisecond,
		30 * sim.Millisecond,
		60 * sim.Millisecond,
		90 * sim.Millisecond,
	}
}

// BaselineQuantum is the normalization point (Xen default).
const BaselineQuantum = 30 * sim.Millisecond

// AgnosticSpread: when the best and worst normalized performance across
// quanta differ by less than this fraction, the type is declared
// quantum-agnostic. Consolidated gang schedules are noisy (alignment
// luck), so the band is generous; genuinely sensitive types (hetero
// IOInt, LLCF) show spreads several times larger.
const AgnosticSpread = 0.25

// Case identifies one calibration subject (a sub-figure of Fig. 2).
type Case struct {
	// Label as in Fig. 2, e.g. "Excl. IOInt".
	Label string
	// Type whose best quantum this case calibrates.
	Type vcputype.Type
	// Spec under calibration.
	Spec workload.AppSpec
	// UseForTable marks the case whose result enters the quantum table
	// (e.g. the heterogeneous IOInt case, not the exclusive one).
	UseForTable bool
}

// Cases returns the calibration subjects of Fig. 2 (a)-(f).
func Cases() []Case {
	topo := hw.I73770()
	return []Case{
		{Label: "Excl. IOInt", Type: vcputype.IOInt, Spec: workload.MicroWeb(false)},
		{Label: "Hetero. IOInt", Type: vcputype.IOInt, Spec: workload.MicroWeb(true), UseForTable: true},
		{Label: "ConSpin", Type: vcputype.ConSpin, Spec: workload.MicroKernbench(4), UseForTable: true},
		{Label: "LLCF", Type: vcputype.LLCF, Spec: workload.MicroListWalk(topo, vcputype.LLCF), UseForTable: true},
		{Label: "LoLCF", Type: vcputype.LoLCF, Spec: workload.MicroListWalk(topo, vcputype.LoLCF), UseForTable: true},
		{Label: "LLCO", Type: vcputype.LLCO, Spec: workload.MicroListWalk(topo, vcputype.LLCO), UseForTable: true},
	}
}

// Point is one measurement of a calibration curve.
type Point struct {
	Quantum sim.Time
	PerPCPU int // vCPUs sharing each pCPU
	// Norm is performance normalized over the 30 ms baseline (lower is
	// better, as in Fig. 2).
	Norm float64
	// Raw is the un-normalized metric (µs latency or time-per-job).
	Raw float64
}

// Curve is the calibration result of one case.
type Curve struct {
	Case   Case
	Points []Point
}

// At returns the point for (q, k).
func (c *Curve) At(q sim.Time, k int) (Point, bool) {
	for _, p := range c.Points {
		if p.Quantum == q && p.PerPCPU == k {
			return p, true
		}
	}
	return Point{}, false
}

// LockPoint is one lock-duration measurement (Fig. 2 rightmost).
type LockPoint struct {
	Quantum  sim.Time
	MeanHold sim.Time
	// MaxHold is the worst hold observed: the direct footprint of
	// lock-holder preemption, which stretches a hold by up to
	// (k-1) quanta.
	MaxHold sim.Time
}

// Report is the full calibration outcome.
type Report struct {
	Curves []Curve
	// LockDurations is the Fig. 2 rightmost series.
	LockDurations []LockPoint
	// Table is the derived per-type best-quantum table.
	Table cluster.QuantumTable
	// AgnosticTypes lists types whose spread was below the threshold.
	AgnosticTypes []vcputype.Type
}

// Options configure a calibration run on the i7-3770 topology.
type Options struct {
	// PerPCPU lists the consolidation ratios to sweep (default {2,4}).
	PerPCPU []int
	// Warmup and Measure default to 1s and 3s.
	Warmup, Measure sim.Time
	Seed            uint64
}

// repeats is the number of seeds each point is averaged over:
// consolidated schedules are bistable (aligned vs. convoyed gangs) and
// single runs sample alignment luck, exactly like single runs on real
// hardware.
const repeats = 3

func (o *Options) fill() {
	if len(o.PerPCPU) == 0 {
		o.PerPCPU = []int{2, 4}
	}
	if o.Warmup == 0 {
		o.Warmup = 1 * sim.Second
	}
	if o.Measure == 0 {
		o.Measure = 3 * sim.Second
	}
	if o.Seed == 0 {
		o.Seed = 0xCA11B
	}
}

// Colo builds the Section 3.4.1 measurement environment for one
// application on the i7-3770: the subject VM colocated with disturber
// VMs so that k vCPUs share each pCPU. Single-vCPU subjects run on one
// pCPU with k-1 disturbers; multi-vCPU subjects (kernbench) run on one
// pCPU per vCPU, with k-1 disturbers per pCPU. The disturbers mix
// trashing and low-footprint list walks ("various workload types"),
// with job sizes varied per instance so rotation periods decorrelate.
func Colo(app workload.AppSpec, k int, warmup, measure sim.Time, seed uint64) scenario.Spec {
	topo := hw.I73770()
	pcpus := 1
	if app.Kind == workload.KindLock {
		pcpus = app.Threads
		if pcpus <= 0 {
			pcpus = 4
		}
	}
	var ids []hw.PCPUID
	for i := 0; i < pcpus; i++ {
		ids = append(ids, hw.PCPUID(i))
	}
	apps := []scenario.Entry{{Spec: app, Count: 1}}
	for i := 0; i < (k-1)*pcpus; i++ {
		d := workload.MicroListWalk(topo, vcputype.LLCO)
		if i%2 == 1 {
			d = workload.MicroListWalk(topo, vcputype.LoLCF)
		}
		d.Steady = false // disturbers keep housekeeping pauses: schedule drift
		d.JobWork += sim.Time(i%5) * 1700 * sim.Microsecond
		apps = append(apps, scenario.Entry{Spec: d, Count: 1})
	}
	return scenario.Spec{
		Name:       fmt.Sprintf("colo-%s-k%d", app.Name, k),
		Topo:       topo,
		GuestPCPUs: ids,
		Apps:       apps,
		Warmup:     warmup,
		Measure:    measure,
		Seed:       seed,
	}
}

// repeatSeed is the seed of repetition r.
func (o *Options) repeatSeed(r int) uint64 { return o.Seed + uint64(r)*7919 }

// measure runs one case at quantum q and ratio k, returning the raw
// metric of the subject application averaged over the repeats.
func measure(c Case, q sim.Time, k int, o Options) float64 {
	sum := 0.0
	for r := 0; r < repeats; r++ {
		spec := Colo(c.Spec, k, o.Warmup, o.Measure, o.repeatSeed(r))
		res := scenario.Run(spec, baselines.FixedQuantum{Q: q})
		// A failed measurement (no jobs at all) contributes 0, exactly
		// like the pre-registry scalar metric did.
		v, _ := res.Apps[0].Perf()
		sum += v
	}
	return sum / repeats
}

// Run executes the full calibration sweep.
func Run(o Options) *Report {
	o.fill()
	rep := &Report{}
	bests := map[vcputype.Type]sim.Time{}
	agnostic := map[vcputype.Type]bool{}

	for _, c := range Cases() {
		curve := Curve{Case: c}
		// Baselines per ratio.
		base := map[int]float64{}
		for _, k := range o.PerPCPU {
			base[k] = measure(c, BaselineQuantum, k, o)
		}
		for _, q := range Quanta() {
			for _, k := range o.PerPCPU {
				raw := base[k]
				if q != BaselineQuantum {
					raw = measure(c, q, k, o)
				}
				norm := 0.0
				if base[k] > 0 {
					norm = raw / base[k]
				}
				curve.Points = append(curve.Points, Point{Quantum: q, PerPCPU: k, Norm: norm, Raw: raw})
			}
		}
		rep.Curves = append(rep.Curves, curve)
		if !c.UseForTable {
			continue
		}
		// Decide best-vs-agnostic at the highest consolidation ratio.
		k := o.PerPCPU[len(o.PerPCPU)-1]
		bestQ, bestN, worstN := BaselineQuantum, 1.0, 1.0
		for _, q := range Quanta() {
			p, ok := curve.At(q, k)
			if !ok {
				continue
			}
			if p.Norm < bestN {
				bestN, bestQ = p.Norm, q
			}
			if p.Norm > worstN {
				worstN = p.Norm
			}
		}
		if worstN-bestN < AgnosticSpread {
			agnostic[c.Type] = true
			continue
		}
		// Keep the better of an existing calibration (two IOInt cases
		// never both enter the table, but stay defensive).
		if prev, ok := bests[c.Type]; !ok || bestQ != prev {
			bests[c.Type] = bestQ
		}
	}

	rep.Table = cluster.QuantumTable{Best: bests, Default: BaselineQuantum}
	for t, ok := range agnostic {
		if ok && bests[t] == 0 {
			rep.AgnosticTypes = append(rep.AgnosticTypes, t)
		}
	}
	sort.Slice(rep.AgnosticTypes, func(a, b int) bool {
		return rep.AgnosticTypes[a] < rep.AgnosticTypes[b]
	})

	// Lock-duration sweep (Fig. 2 rightmost): kernbench, 4 vCPUs per
	// pCPU, quanta 20..80 ms.
	for _, q := range []sim.Time{20 * sim.Millisecond, 40 * sim.Millisecond, 60 * sim.Millisecond, 80 * sim.Millisecond} {
		mean, max := lockDuration(q, o)
		rep.LockDurations = append(rep.LockDurations, LockPoint{
			Quantum:  q,
			MeanHold: mean,
			MaxHold:  max,
		})
	}
	return rep
}

// lockDuration measures the mean and worst spin-lock hold duration of
// the ConSpin micro-benchmark consolidated at 4 vCPUs per pCPU,
// aggregated over the repeats.
func lockDuration(q sim.Time, o Options) (mean, max sim.Time) {
	// Longer critical sections than the throughput micro-benchmark so
	// that slice boundaries land inside holds often enough for the
	// worst-hold statistic to stabilise within the measurement window.
	app := workload.MicroKernbench(4)
	app.Hold = 200 * sim.Microsecond
	app.Gap = 600 * sim.Microsecond
	var meanSum sim.Time
	n := 0
	for r := 0; r < repeats; r++ {
		spec := Colo(app, 4, o.Warmup, o.Measure, o.repeatSeed(r))
		res := scenario.Run(spec, baselines.FixedQuantum{Q: q})
		for _, d := range res.Deps {
			if len(d.Locks) > 0 {
				_, m, mx := d.Locks[0].HoldStats()
				meanSum += m
				n++
				if mx > max {
					max = mx
				}
			}
		}
	}
	if n > 0 {
		mean = meanSum / sim.Time(n)
	}
	return mean, max
}
