// Epoch execution of one fleet run, optionally sharded across cores.
//
// A fleet run is one giant sweep cell, so sweep-level parallelism cannot
// touch it; this file shards the run itself across cores without giving
// up the bit-identical-at-any-workers guarantee. The enabling property
// is the fleet's isolation invariant: every host owns a private engine,
// topology, cache model, policy instance and RNG fork, and hosts only
// ever interact through the central timeline, a sim.Engine of its own.
//
// Execution splits into epochs. All events sharing one fleet timestamp t
// form an epoch. The first of them to fire runs the epoch barrier (see
// Fleet.push): every host advances its private engine to t. The epoch's
// events then apply single-threaded in (time, seq) order, together with
// any same-time events they push, which the engine fires after the ones
// already queued. Event handlers therefore always see every host already
// at the event time and never advance an engine themselves. With
// workers > 1 the barrier runs on a bounded worker pool; with
// workers = 1 there is no pool and the barrier advances hosts inline, in
// host order. Advancing a host early is observationally neutral: between
// fleet events nothing outside the host can observe or perturb its
// engine, so running it to t fires exactly the engine events a later,
// longer advance would fire, in the same order, with the same state.
// Cross-host effects (placement, migration completion, crash/recovery,
// rebalance ticks) and every central RNG draw happen on the one timeline
// thread, so all artifacts — fault schedules included — are
// byte-identical at any worker count.
package fleet

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"aqlsched/internal/sim"
)

// resolveWorkers picks the effective shard-worker count for one run:
// the Options value, else GOMAXPROCS; never more than one worker per
// host. A result of 1 means no pool: the epoch barriers advance hosts
// inline.
func resolveWorkers(opt, hosts int) int {
	w := opt
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > hosts {
		w = hosts
	}
	if w < 1 {
		w = 1
	}
	return w
}

// advancePanic is one captured worker panic: which index raised it,
// the panic value, and the worker's stack at capture time.
type advancePanic struct {
	index int
	val   any
	stack []byte
}

// advancePool is a bounded pool of persistent worker goroutines driving
// the epoch barriers. One pool serves one Fleet run: barriers fire once
// per epoch, so workers are reused rather than respawned, and the pool
// is torn down with close when the run returns (panic or not).
type advancePool struct {
	workers int
	jobs    chan func()
	wg      sync.WaitGroup

	mu     sync.Mutex
	panics []advancePanic
}

func newAdvancePool(workers int) *advancePool {
	p := &advancePool{workers: workers, jobs: make(chan func(), workers)}
	for i := 0; i < workers; i++ {
		go func() {
			for fn := range p.jobs {
				fn()
			}
		}()
	}
	return p
}

// close releases the worker goroutines. The pool must be idle (no do in
// flight).
func (p *advancePool) close() { close(p.jobs) }

// do runs fn(i) for every i in [0, n) across the pool's workers and
// returns once all completed. A nil pool (workers = 1) runs every index
// inline, in order, and lets a panic propagate unwrapped. Indices are
// handed out through an atomic cursor, so skewed per-index work
// self-balances instead of serializing behind a static partition. Worker
// panics are captured — the remaining indices still execute, keeping the
// barrier well-formed — and re-raised here; when several indices panic,
// the lowest one wins, so the surfaced failure does not depend on
// goroutine scheduling.
func (p *advancePool) do(n int, fn func(i int)) {
	if p == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if n <= 0 {
		return
	}
	var cursor atomic.Int64
	workers := p.workers
	if workers > n {
		workers = n
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		p.jobs <- func() {
			defer p.wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				p.run(i, fn)
			}
		}
	}
	p.wg.Wait()
	if len(p.panics) == 0 {
		return
	}
	first := p.panics[0]
	for _, pc := range p.panics[1:] {
		if pc.index < first.index {
			first = pc
		}
	}
	p.panics = nil
	panic(fmt.Sprintf("fleet: parallel host advance panicked (host %d): %v\n%s",
		first.index, first.val, first.stack))
}

// run executes fn(i), converting a panic into a captured record so the
// worker survives and the barrier completes.
func (p *advancePool) run(i int, fn func(i int)) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			p.panics = append(p.panics, advancePanic{index: i, val: r, stack: debug.Stack()})
			p.mu.Unlock()
		}
	}()
	fn(i)
}

// advanceAll advances every host's private engine to t: the epoch
// barrier, sharded over the pool when one is armed and inline
// otherwise. Hosts already at (or past) t are skipped up front, so a
// repeated barrier at the same instant costs no advance calls. Hosts
// never share mutable state during advance — see the package comment
// above for why eager advancement is neutral.
func (f *Fleet) advanceAll(t sim.Time) {
	stale := f.staleHosts(t)
	f.advances += len(stale)
	f.pool.do(len(stale), func(i int) { stale[i].advance(t) })
}

// staleHosts lists the hosts whose engines are strictly behind t, in
// host order.
func (f *Fleet) staleHosts(t sim.Time) []*Host {
	stale := make([]*Host, 0, len(f.Hosts))
	for _, h := range f.Hosts {
		if h.Hyp.Engine.Now() < t {
			stale = append(stale, h)
		}
	}
	return stale
}

// run drives the central timeline to the end of the measurement window
// and then drains every host to it.
func (f *Fleet) run() {
	f.tl.RunUntil(f.end)
	f.advanceAll(f.end)
}
