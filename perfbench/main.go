// Command perfbench is the repository's benchmark. It runs one workload
// in-process against the simulator stack, checks the outputs, and prints
// one JSON result line:
//
//	bash perfbench/run.sh --workload paper-grid --seed 0 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from a traced phase
// that follows an untraced one. README.md explains the workloads and
// which per-layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics of an untraced run, on every workload. The
// wall-time latencies and throughputs go to the report lines only: on a
// shared machine they follow the host's load (README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_cell", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
}

// cpuBuckets are the cpu_share.<bucket> metrics: the packages whose
// self time the simulator stack spends, then catch-alls.
var cpuBuckets = []string{
	"sim", "cache", "guest", "workload", "xen", "credit", "core", "vtrs",
	"scenario", "fleet", "sweep", "serve", "fairshare", "metrics", "atomicio",
	"internal_other", "runtime", "syscall", "other",
}

// perLayer are the metrics of a traced run, on every workload. A layer
// that does no work on a workload reads 0.
var perLayer = func() []struct{ name, unit string } {
	l := []struct{ name, unit string }{
		{"spec.parse_ms", "ms"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"xen.dispatches", "count"},
		{"xen.preemptions", "count"},
		{"credit.calls", "count"},
		{"credit.self_ms", "ms"},
		{"scenario.run_ms_p50", "ms"},
		{"scenario.run_ms_p90", "ms"},
		{"fleet.run_ms", "ms"},
		{"fleet.shard_speedup", "x"},
		{"fleet.placements", "count"},
		{"fleet.migrations", "count"},
		{"sweep.pool_busy_frac", "frac"},
		{"sweep.aggregate_ms", "ms"},
		{"sweep.emit_ms", "ms"},
		{"journal.records", "count"},
		{"journal.record_ms_p50", "ms"},
		{"journal.record_ms_p90", "ms"},
		{"serve.boot_ms", "ms"},
		{"serve.submit_ms_p50", "ms"},
		{"serve.submit_ms_p90", "ms"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.queue_wait_ms_p90", "ms"},
		{"serve.exec_ms", "ms"},
		{"serve.stream_tail_ms", "ms"},
		{"fairshare.share_error", "frac"},
		{"trace_overhead_frac", "frac"},
	}
	for _, b := range cpuBuckets {
		l = append(l, struct{ name, unit string }{"cpu_share." + b, "frac"})
	}
	return l
}()

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	values            map[string]float64 // by metric name
	report            []string           // readable metric lines, with sample counts
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

func (o *outcome) note(name string, v float64, unit string, n int) {
	line := fmt.Sprintf("%-22s %14.4f %-9s", name, v, unit)
	if n > 0 {
		line += " n=" + strconv.Itoa(n)
	}
	o.report = append(o.report, line)
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string
	work     string
	nproc    int
}

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "paper-grid, fleet-dc or daemon-mix")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "seconds to measure")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced phase")
	flag.Parse()
	if _, batchOK := batchSources[cfg.workload]; !batchOK && cfg.workload != "daemon-mix" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (paper-grid, fleet-dc, daemon-mix)\n", cfg.workload)
		return 2
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	var err error
	if cfg.root, err = os.Getwd(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg.nproc = runtime.NumCPU()
	cfg.work = filepath.Join(cfg.root, ".bench_build", "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	var out *outcome
	if cfg.workload == "daemon-mix" {
		out, err = runDaemon(cfg)
	} else {
		out, err = runBatch(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	for _, l := range out.report {
		fmt.Println("  " + l)
	}
	fpJSON, _ := json.Marshal(map[string]any{"fingerprint": fingerprint()})
	fmt.Println(string(fpJSON))

	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	metrics := map[string]metric{}
	for _, m := range names {
		v, ok := out.values[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: internal error: metric %s not measured\n", m.name)
			return 1
		}
		metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if out.failed > out.attempted {
		out.failed = out.attempted
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(res))
	return 0
}

// sortedKeys lists a map's keys in order (stable report output).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
