package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"aqlsched/internal/sweep"
)

func TestInputsFollowTheSeed(t *testing.T) {
	plan := func(seed uint64) []jobInput {
		var p []jobInput
		for c := 0; c < 2; c++ {
			for k := 0; k < 16; k++ {
				p = append(p, daemonJob(seed, c, k))
			}
		}
		return p
	}
	same := func(a, b []jobInput) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return len(a) == len(b)
	}
	if !same(plan(7), plan(7)) || baseSeedFor(7) != baseSeedFor(7) {
		t.Fatal("the same seed generated different inputs")
	}
	if same(plan(7), plan(8)) || baseSeedFor(7) == baseSeedFor(8) {
		t.Fatal("different seeds generated the same inputs")
	}
	if baseSeedFor(defaultSeed) != 0 || baseSeedFor(1) == 0 {
		t.Fatal("only the default seed may keep the specs' own seeds")
	}
	for _, in := range plan(3) {
		if in.BaseSeed == 0 {
			t.Fatal("a daemon job drew base seed 0, which the daemon reads as the default")
		}
	}
}

func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, code []struct{ name, unit string }, declared []struct{ Name, Unit string }) {
		if len(code) != len(declared) {
			t.Errorf("%s: the benchmark reports %d metrics, BENCHMARK.json declares %d", kind, len(code), len(declared))
			return
		}
		seen := map[string]bool{}
		for i, m := range code {
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("%s: bad metric name or unit %q %q", kind, m.name, m.unit)
			}
			if seen[m.name] {
				t.Errorf("%s: duplicate metric %q", kind, m.name)
			}
			seen[m.name] = true
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s[%d]: reported %s [%s], declared %s [%s]", kind, i, m.name, m.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "exec", StartNS: 0, EndNS: 100},
		// Two overlapping cells (a worker pool) and one that outlives
		// its parent: the union inside [0, 100] is [10, 50] + [90, 100].
		{ID: 2, Parent: 1, Name: "cell", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "cell", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 1, Name: "cell", StartNS: 90, EndNS: 120},
		{ID: 5, Parent: 3, Name: "record", StartNS: 40, EndNS: 45},
	}
	got := selfTimes(spans)
	want := map[string]int64{"exec": 100 - 50, "cell": 20 + (30 - 5) + 30, "record": 5}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if median(xs) != 3 || quantile(xs, 0) != 1 || quantile(xs, 1) != 5 || abs(quantile(xs, 0.9)-4.6) > 1e-9 {
		t.Fatalf("quantiles of %v: p50 %v p90 %v", xs, median(xs), quantile(xs, 0.9))
	}
	if xs[0] != 4 {
		t.Fatal("quantile reordered its input")
	}
}

// Each set-up sample is the CPU time of one call on the calling thread:
// a call that spins for a millisecond reads about a millisecond.
func TestSetupTimes(t *testing.T) {
	calls := 0
	samples, err := setupTimes(func() error {
		calls++
		for t0 := time.Now(); time.Since(t0) < time.Millisecond; {
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != setupSamples || calls < setupSamples {
		t.Fatalf("%d samples from %d calls, want %d samples", len(samples), calls, setupSamples)
	}
	for _, s := range samples {
		if s <= 0 || s > 0.002 {
			t.Fatalf("sample %v s for a 1 ms spin", s)
		}
	}
}

func TestBuckets(t *testing.T) {
	known := map[string]bool{}
	for _, b := range cpuBuckets {
		known[b] = true
	}
	for fn, want := range map[string]string{
		"aqlsched/internal/sim.(*Engine).siftDown":             "sim",
		"aqlsched/internal/xen.(*Hypervisor).burstEnded.func1": "xen",
		"aqlsched/internal/hw.(*Topology).SpeedOf":             "internal_other",
		"runtime.mallocgc":                  "runtime",
		"internal/runtime/syscall.Syscall6": "syscall",
		"syscall.Syscall":                   "syscall",
		"main.(*schedProbe).exit":           "other",
	} {
		if got := bucketOf(fn, known); got != want {
			t.Errorf("bucketOf(%s) = %s, want %s", fn, got, want)
		}
	}
}

func TestCPUSharesReadsAGoProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip(err)
	}
	spin := 0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		spin++
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %v, want 1 (%v)", total, shares)
	}
}

// The probes must not change what they observe: an instrumented sweep
// emits the same artifacts as a plain one. dynmix exercises churn
// (AddVCPU/RemoveVCPU after Setup) and the AQL controller the scenario
// layer reaches through the policy.
func TestProbeLeavesArtifactsUnchanged(t *testing.T) {
	src := specSource{File: "examples/specs/dynmix.json"}
	run := func(instrumented bool) (string, cellCounts) {
		spec, _, err := loadSpec("..", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		var (
			probes *probeSet
			counts cellCounts
		)
		opts := sweep.Options{Workers: 2}
		if instrumented {
			probes = instrument(spec)
			opts.OnRun = func(rr *sweep.RunResult) { counts.add(probes.take(rr)) }
		}
		res, err := sweep.Exec(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := res.WriteArtifacts(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		d, err := digestArtifacts(paths)
		if err != nil {
			t.Fatal(err)
		}
		return d, counts
	}
	plain, _ := run(false)
	probed, c1 := run(true)
	_, c2 := run(true)
	if plain != probed {
		t.Fatal("instrumenting the sweep changed its artifacts")
	}
	if c1.Events == 0 || c1.SchedCalls == 0 || c1.VCPUSeconds <= 0 {
		t.Fatalf("probes counted nothing: %+v", c1)
	}
	if c1.Events != c2.Events || c1.Dispatches != c2.Dispatches || c1.SchedCalls != c2.SchedCalls || c1.VCPUSeconds != c2.VCPUSeconds {
		t.Fatalf("exact counts differ between two runs: %+v vs %+v", c1, c2)
	}
}
