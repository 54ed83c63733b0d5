package main

import (
	"sync"
	"time"

	"aqlsched/internal/baselines"
	"aqlsched/internal/core"
	"aqlsched/internal/hw"
	"aqlsched/internal/metrics"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/sweep"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// schedProbe decorates a hypervisor's xen.Scheduler from outside: it
// counts calls, sums their self time (a scheduler call that re-enters
// the scheduler through the hypervisor has the nested call's time
// subtracted), and integrates live vCPUs over simulated time from the
// AddVCPU/RemoveVCPU calls. Hypervisor work a call triggers without
// re-entering the scheduler counts as the call's own.
type schedProbe struct {
	xen.Scheduler
	h      *xen.Hypervisor
	calls  int64
	selfNS int64
	nested []int64 // time of nested calls, one entry per open call

	live     int
	lastAt   sim.Time
	vcpuTime sim.Time // ∫ live vCPUs dt
}

func (p *schedProbe) enter() time.Time {
	p.calls++
	p.nested = append(p.nested, 0)
	return time.Now()
}

func (p *schedProbe) exit(t0 time.Time) {
	d := time.Since(t0).Nanoseconds()
	n := len(p.nested) - 1
	p.selfNS += d - p.nested[n]
	p.nested = p.nested[:n]
	if n > 0 {
		p.nested[n-1] += d
	}
}

func (p *schedProbe) setLive(delta int, now sim.Time) {
	p.vcpuTime += sim.Time(p.live) * (now - p.lastAt)
	p.lastAt = now
	p.live += delta
}

func (p *schedProbe) AddVCPU(v *xen.VCPU, now sim.Time) {
	p.setLive(+1, now)
	defer p.exit(p.enter())
	p.Scheduler.AddVCPU(v, now)
}

func (p *schedProbe) RemoveVCPU(v *xen.VCPU, now sim.Time) {
	p.setLive(-1, now)
	defer p.exit(p.enter())
	p.Scheduler.RemoveVCPU(v, now)
}

func (p *schedProbe) Wake(v *xen.VCPU, now sim.Time) {
	defer p.exit(p.enter())
	p.Scheduler.Wake(v, now)
}

func (p *schedProbe) Requeue(v *xen.VCPU, ranFor, now sim.Time) {
	defer p.exit(p.enter())
	p.Scheduler.Requeue(v, ranFor, now)
}

func (p *schedProbe) Block(v *xen.VCPU, now sim.Time) {
	defer p.exit(p.enter())
	p.Scheduler.Block(v, now)
}

func (p *schedProbe) PickNext(pc hw.PCPUID, now sim.Time) *xen.VCPU {
	defer p.exit(p.enter())
	return p.Scheduler.PickNext(pc, now)
}

func (p *schedProbe) SliceFor(v *xen.VCPU, pc hw.PCPUID) sim.Time {
	defer p.exit(p.enter())
	return p.Scheduler.SliceFor(v, pc)
}

func (p *schedProbe) PoolChanged(v *xen.VCPU, now sim.Time) {
	defer p.exit(p.enter())
	p.Scheduler.PoolChanged(v, now)
}

// probePolicy wraps a policy so that, once the policy's own Setup has
// run, the hypervisor's scheduler is decorated by a schedProbe. It
// forwards the optional policy interfaces the scenario and fleet layers
// look for, so the wrapped run's artifacts stay byte-identical.
type probePolicy struct {
	scenario.Policy
	hosts []*schedProbe
}

func (p *probePolicy) Setup(h *xen.Hypervisor, deps []*workload.Deployment) {
	p.Policy.Setup(h, deps)
	sp := &schedProbe{Scheduler: h.Sched, h: h, live: len(h.AllVCPUs()), lastAt: h.Engine.Now()}
	h.Sched = sp
	p.hosts = append(p.hosts, sp)
}

func (p *probePolicy) ReportRunMetrics(set *metrics.Set) {
	if r, ok := p.Policy.(scenario.RunMetricsReporter); ok {
		r.ReportRunMetrics(set)
	}
}

func (p *probePolicy) AQLController() *core.Controller {
	if cp, ok := p.Policy.(scenario.ControllerProvider); ok {
		return cp.AQLController()
	}
	return nil
}

// cellCounts are one cell's exact simulator counts.
type cellCounts struct {
	Events      uint64
	Dispatches  uint64
	Preemptions uint64
	SchedCalls  int64
	SchedSelfNS int64
	VCPUSeconds float64
}

func (c *cellCounts) add(o cellCounts) {
	c.Events += o.Events
	c.Dispatches += o.Dispatches
	c.Preemptions += o.Preemptions
	c.SchedCalls += o.SchedCalls
	c.SchedSelfNS += o.SchedSelfNS
	c.VCPUSeconds += o.VCPUSeconds
}

// probeSet hands out probePolicies for one sweep and attributes them to
// cells. A single-host cell's run keeps its policy instance, which names
// its probe. A fleet cell builds one policy per host and keeps none, so
// fleet cells are attributed everything still unclaimed; that is exact
// only when fleet cells run one at a time, as fleet-dc runs them.
type probeSet struct {
	mu      sync.Mutex
	pending map[*probePolicy]bool
}

// instrument rewires every policy constructor of spec through a probe.
func instrument(spec *sweep.Spec) *probeSet {
	ps := &probeSet{pending: map[*probePolicy]bool{}}
	for i := range spec.Policies {
		inner := spec.Policies[i].New
		spec.Policies[i].New = func() scenario.Policy {
			p := &probePolicy{Policy: inner()}
			ps.mu.Lock()
			ps.pending[p] = true
			ps.mu.Unlock()
			return p
		}
	}
	return ps
}

// take claims and sums the probes of the run that just completed.
func (ps *probeSet) take(rr *sweep.RunResult) cellCounts {
	ps.mu.Lock()
	var mine []*probePolicy
	if p, ok := rr.Instance.(*probePolicy); ok {
		mine = []*probePolicy{p}
		delete(ps.pending, p)
	} else {
		for p := range ps.pending {
			mine = append(mine, p)
		}
		clear(ps.pending)
	}
	ps.mu.Unlock()

	var c cellCounts
	for _, p := range mine {
		for _, sp := range p.hosts {
			h := sp.h
			end := h.Engine.Now()
			sp.setLive(0, end)
			c.Events += h.Engine.Fired()
			c.Dispatches += h.CtxSwitches
			c.Preemptions += h.Preemptions
			c.SchedCalls += sp.calls
			c.SchedSelfNS += sp.selfNS
			c.VCPUSeconds += float64(sp.vcpuTime) / float64(sim.Second)
		}
		p.hosts = nil // release the hypervisors
		// As sweep.Exec does for an unwrapped AQL policy: keep the
		// controller's diagnostics, release the simulation graph.
		if a, ok := p.Policy.(baselines.AQL); ok && a.Out != nil && *a.Out != nil {
			(*a.Out).H = nil
			(*a.Out).Monitor = nil
		}
	}
	if v, ok := rr.Metrics.Get("fleet_vm_seconds"); ok {
		c.VCPUSeconds = v
	}
	return c
}
