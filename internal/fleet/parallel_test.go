package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"aqlsched/internal/credit"
	"aqlsched/internal/hw"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// stormFleetSpec is genFleetSpec under fire: crash and degrade storms
// plus flaky migrations, so the parallel loop is exercised against the
// full fault machinery (stale-generation guards, retries, recovery).
func stormFleetSpec() Spec {
	sp := genFleetSpec()
	sp.Name = "parallel-storm"
	sp.GenSeed = 7
	sp.Faults = &FaultPlan{
		CrashStorm:   &Storm{Rate: 15, Start: 40 * sim.Millisecond, Horizon: 180 * sim.Millisecond, MeanDown: 30 * sim.Millisecond},
		DegradeStorm: &Storm{Rate: 10, Horizon: 200 * sim.Millisecond, MeanDown: 50 * sim.Millisecond, Factor: 0.5},
		MigFailProb:  0.3,
		Recovery:     Recovery{MaxRetries: 3, RetryDelay: 5 * sim.Millisecond, Backoff: 2, OnExhaust: "requeue"},
	}
	return sp
}

// Frozen workers=1 digests of genFleetSpec and stormFleetSpec (see
// resultDigest), recorded from the lazy serial run loop this package
// used to keep for workers = 1. They are an independent reference: the
// epoch loop must still reproduce that loop's results exactly.
const (
	genFleetDigest   = "01f26d3d20523336336f0122049b11484acd7915916474923e9303c80e3f71b3"
	stormFleetDigest = "99f96c8741afe22fdacdad3864c0a79e8b84906c3903efbca3d679d01149d395"
)

// genVMsDigest is the sha256 of genFleetSpec's VM timeline (GenVMs in
// its JSON encoding), recorded while GenVMs still carried its own
// population and churn loops: an independent reference for the tenant
// and app draw order of the churned, multi-tenant population.
const genVMsDigest = "0bd324c841460f9d78673ded12540776de4683938b53d0d2d99ad71848532cae"

func TestGenVMsFrozenDigest(t *testing.T) {
	sp := genFleetSpec()
	vms, err := sp.GenVMs()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(vms); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != genVMsDigest {
		t.Errorf("GenVMs digest %s, want the frozen %s", got, genVMsDigest)
	}
}

// resultDigest is a sha256 over the run metrics and every tenant's name
// and metrics, in their JSON encoding (which round-trips float64
// values bit-exactly).
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(res.Metrics); err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		if err := enc.Encode(struct {
			Name    string
			Metrics any
		}{a.Name, a.Metrics}); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// assertDigestAtWorkers runs spec at every shard-worker count and checks
// each result's invariants and digest against the frozen reference.
func assertDigestAtWorkers(t *testing.T, spec func() Spec, want string, workers ...int) {
	t.Helper()
	for _, w := range workers {
		res := Run(spec(), Options{Workers: w})
		if err := res.Fleet.CheckInvariants(); err != nil {
			t.Errorf("workers=%d: %v", w, err)
		}
		if got := resultDigest(t, res); got != want {
			t.Errorf("workers=%d: result digest %s, want the frozen %s", w, got, want)
		}
	}
}

// TestParallelRunMatchesSerial: a churn-and-migration fleet must
// produce bit-identical results at every shard-worker count, including
// counts above the host count (capped) and above GOMAXPROCS, and those
// results must match the frozen serial-loop reference.
func TestParallelRunMatchesSerial(t *testing.T) {
	assertDigestAtWorkers(t, genFleetSpec, genFleetDigest, 1, 2, 3, 4, 16)
}

// TestParallelFaultRunMatchesSerial: fault injection shares the
// central timeline, so crash storms, recovery retries and migration-
// failure draws must also be identical at any shard-worker count.
func TestParallelFaultRunMatchesSerial(t *testing.T) {
	serial := Run(stormFleetSpec(), Options{Workers: 1})
	if v, _ := serial.Metrics.Get("fleet_faults_injected"); v < 2 {
		t.Fatalf("fleet_faults_injected = %v, want a real storm so the test means something", v)
	}
	assertDigestAtWorkers(t, stormFleetSpec, stormFleetDigest, 1, 2, 4)
}

func TestResolveWorkers(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		opt, hosts, want int
	}{
		{0, 100, min(maxprocs, 100)}, // default: GOMAXPROCS, host-capped
		{1, 100, 1},                  // explicit serial
		{4, 100, 4},
		{16, 4, 4},                    // capped at the host count
		{-5, 100, min(maxprocs, 100)}, // negatives fall through to the default
	}
	for _, c := range cases {
		if got := resolveWorkers(c.opt, c.hosts); got != c.want {
			t.Errorf("resolveWorkers(%d, %d) = %d, want %d", c.opt, c.hosts, got, c.want)
		}
	}
}

// TestAdvancePoolPanicPropagation: a panic on a worker must surface in
// the caller — deterministically the lowest panicking index — and the
// pool must stay usable afterwards (the barrier completes, workers
// survive).
func TestAdvancePoolPanicPropagation(t *testing.T) {
	p := newAdvancePool(3)
	defer p.close()

	var ran atomic.Int64
	got := func() (r any) {
		defer func() { r = recover() }()
		p.do(16, func(i int) {
			ran.Add(1)
			if i%5 == 0 {
				panic(fmt.Sprintf("boom-%d", i))
			}
		})
		return nil
	}()
	if got == nil {
		t.Fatal("worker panic did not propagate out of do")
	}
	msg, ok := got.(string)
	if !ok {
		t.Fatalf("propagated panic is %T, want the formatted string", got)
	}
	if !strings.Contains(msg, "boom-0") || !strings.Contains(msg, "(host 0)") {
		t.Errorf("propagated panic should carry the lowest panicking index, got:\n%s", msg)
	}
	if n := ran.Load(); n != 16 {
		t.Errorf("barrier ran %d/16 indices; panics must not abort the epoch", n)
	}

	ran.Store(0)
	p.do(8, func(int) { ran.Add(1) })
	if n := ran.Load(); n != 8 {
		t.Errorf("pool ran %d/8 indices after a propagated panic", n)
	}
}

// panicPolicy arms a timer on each host's private engine that panics
// mid-run — a stand-in for any bug inside parallel host advancement.
type panicPolicy struct{}

func (panicPolicy) Name() string { return "panic" }
func (panicPolicy) Setup(h *xen.Hypervisor, _ []*workload.Deployment) {
	h.Engine.After(30*sim.Millisecond, func(sim.Time) { panic("injected advance panic") })
}

// TestPanicInHostAdvancePropagates: a panic raised inside a host's
// engine while the shard pool is advancing it must reach Run's caller
// (the sweep layer converts it into a FAILED run) instead of killing a
// bare worker goroutine.
func TestPanicInHostAdvancePropagates(t *testing.T) {
	for _, w := range []int{1, 4} {
		got := func() (r any) {
			defer func() { r = recover() }()
			Run(genFleetSpec(), Options{
				Workers:   w,
				NewPolicy: func() scenario.Policy { return panicPolicy{} },
			})
			return nil
		}()
		if got == nil {
			t.Fatalf("workers=%d: injected panic did not propagate", w)
		}
		if msg := fmt.Sprint(got); !strings.Contains(msg, "injected advance panic") {
			t.Errorf("workers=%d: propagated panic lost the cause: %v", w, msg)
		}
	}
}

// TestAdvanceAllSkipsCurrentHosts: the epoch barrier must only issue
// advance calls for hosts whose engines are strictly behind the barrier
// time — re-advancing the rest is wasted work (and, with a pool, wasted
// job scheduling). Counted via the Fleet.advances probe with no pool
// (inline barrier) and with one.
func TestAdvanceAllSkipsCurrentHosts(t *testing.T) {
	newHost := func(id int) *Host {
		topo := *hw.I73770()
		return &Host{ID: id, Hyp: xen.New(&topo, credit.New(), uint64(id)+1)}
	}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			f := &Fleet{Hosts: []*Host{newHost(0), newHost(1), newHost(2), newHost(3)}}
			if workers > 1 {
				f.pool = newAdvancePool(workers)
				defer f.pool.close()
			}

			f.advanceAll(10 * sim.Millisecond)
			if f.advances != 4 {
				t.Fatalf("first barrier issued %d advances, want 4 (all hosts stale)", f.advances)
			}

			// Two hosts are already current; the next barrier must only
			// advance the other two.
			f.Hosts[1].advance(20 * sim.Millisecond)
			f.Hosts[3].advance(20 * sim.Millisecond)
			f.advanceAll(20 * sim.Millisecond)
			if f.advances != 6 {
				t.Errorf("second barrier brought total advances to %d, want 6 (current hosts skipped)", f.advances)
			}

			// A barrier at a time every host has reached is a no-op.
			f.advanceAll(20 * sim.Millisecond)
			if f.advances != 6 {
				t.Errorf("no-op barrier issued advances, total %d, want 6", f.advances)
			}

			for _, h := range f.Hosts {
				if now := h.Hyp.Engine.Now(); now != 20*sim.Millisecond {
					t.Errorf("host %d engine at %v after barriers, want 20ms", h.ID, now)
				}
			}
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
