package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aqlsched/internal/serve"
	"aqlsched/internal/sweep"
)

// jobTimeout bounds one job's round trip; a job over it counts as failed.
const jobTimeout = 60 * time.Second

// daemonRef is the batch reference of one job input: the artifact the
// daemon must serve byte for byte, and what the job costs the simulator.
type daemonRef struct {
	src    []byte
	cells  int
	json   []byte
	counts cellCounts // exact, from an instrumented batch run
	plain  *refTiming // trace mode only: an uninstrumented, timed batch run
}

// refTiming is a timed, uninstrumented batch run of a job's spec.
type refTiming struct {
	runs      []sweep.RunResult
	execWall  time.Duration
	aggregate time.Duration
	emit      time.Duration
}

// daemonRefs computes the references of every job input the seed can
// draw, outside any timed phase.
func daemonRefs(cfg config) (map[jobInput]*daemonRef, error) {
	refs := map[jobInput]*daemonRef{}
	for i, src := range daemonSources {
		for _, seed := range daemonSeedPool(cfg.seed) {
			ref, err := batchRef(cfg, src, seed, len(refs))
			if err != nil {
				return nil, err
			}
			refs[jobInput{Source: i, BaseSeed: seed}] = ref
		}
	}
	return refs, nil
}

func batchRef(cfg config, src specSource, seed uint64, n int) (*daemonRef, error) {
	execOnce := func(instrumented bool, dir string) (*daemonRef, *refTiming, error) {
		spec, raw, err := loadSpec(cfg.root, src, seed)
		if err != nil {
			return nil, nil, err
		}
		ref := &daemonRef{src: raw, cells: len(spec.Runs())}
		var probes *probeSet
		if instrumented {
			probes = instrument(spec)
		}
		var (
			mu      sync.Mutex
			lastRun time.Time
		)
		opts := sweep.Options{Workers: cfg.nproc, OnRun: func(rr *sweep.RunResult) {
			mu.Lock()
			defer mu.Unlock()
			if probes != nil {
				ref.counts.add(probes.take(rr))
			}
			lastRun = time.Now()
		}}
		t0 := time.Now()
		res, err := sweep.Exec(spec, opts)
		t1 := time.Now()
		if err != nil {
			return nil, nil, err
		}
		if res.Failed() > 0 {
			return nil, nil, fmt.Errorf("reference %s seed %d: %d runs failed", src, seed, res.Failed())
		}
		paths, err := res.WriteArtifacts(dir)
		emit := time.Since(t1)
		if err != nil {
			return nil, nil, err
		}
		if ref.json, err = os.ReadFile(paths[0]); err != nil {
			return nil, nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		return ref, &refTiming{runs: res.Runs, execWall: t1.Sub(t0), aggregate: t1.Sub(lastRun), emit: emit}, nil
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("ref-%d", n))
	ref, _, err := execOnce(true, dir)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		plain, timing, err := execOnce(false, dir+"-plain")
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(plain.json, ref.json) {
			return nil, fmt.Errorf("reference %s seed %d: the instrumented run's artifact differs from the plain run's", src, seed)
		}
		ref.plain = timing
	}
	return ref, nil
}

// bootOnce is one daemon set-up: serve.New on a data directory that
// holds no jobs, then /v1/healthz through the daemon's handler, all on
// the calling goroutine. The listener and the HTTP client belong to the
// benchmark, so they are left out. A daemon that has accepted no job
// runs no goroutines, so it is dropped without Drain, which would only
// rewrite its queue.json and leave fsync work behind for the next boot.
func bootOnce(data string, workers int) error {
	srv, err := serve.New(serve.Config{DataDir: data, JobSlots: daemonSlots, SweepWorkers: workers})
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("daemon healthz: HTTP %d", rec.Code)
	}
	return nil
}

// daemon is one aqlsweepd instance served in-process over loopback.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// boot starts a daemon for a mix phase on a fresh data directory, served
// over loopback, and returns once /v1/healthz answers 200.
func boot(data string, slots, workers int) (*daemon, error) {
	t0 := time.Now()
	srv, err := serve.New(serve.Config{DataDir: data, JobSlots: slots, SweepWorkers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	for {
		resp, err := http.Get(d.url + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			d.stop()
			return nil, fmt.Errorf("daemon did not become healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP server down, drains the queue and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.done
	d.srv.Drain()
}

// jobRec is one closed-loop job as its client saw it.
type jobRec struct {
	client  int
	in      jobInput
	id      string
	ok      bool
	cells   int
	start   time.Time
	submit  time.Duration // POST round trip
	first   time.Duration // start → first result line
	last    time.Time     // last result line received
	done    time.Duration // start → artifact received
	view    serve.JobView // trace mode: the job record after completion
	traceID int
}

// minJobs is the fewest jobs a mix phase completes, so that its p90
// has at least ten samples beyond it.
const minJobs = 100

// mixPhase runs nproc closed-loop clients against d until dur has
// elapsed and at least minJobs jobs have been started; jobs in flight
// then finish.
func mixPhase(cfg config, d *daemon, refs map[jobInput]*daemonRef, dur time.Duration, tr *tracer) []jobRec {
	client := &http.Client{Timeout: jobTimeout, Transport: &http.Transport{MaxConnsPerHost: cfg.nproc, MaxIdleConnsPerHost: cfg.nproc}}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(dur)
	var started atomic.Int64
	per := make([][]jobRec, cfg.nproc)
	var wg sync.WaitGroup
	for c := 0; c < cfg.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				if n := started.Add(1); n > minJobs && !time.Now().Before(deadline) {
					return
				}
				in := daemonJob(cfg.seed, c, k)
				per[c] = append(per[c], runJob(client, d.url, c, in, refs[in], tr))
			}
		}(c)
	}
	wg.Wait()
	var all []jobRec
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// runJob submits one job, streams its results to EOF and fetches its
// JSON artifact, checking every response and the artifact's bytes.
func runJob(client *http.Client, url string, c int, in jobInput, ref *daemonRef, tr *tracer) jobRec {
	rec := jobRec{client: c, in: in, start: time.Now()}
	rec.traceID = tr.begin("job", "", 0)
	defer tr.end(rec.traceID)
	fail := func(format string, args ...any) jobRec {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: client %d job %s: "+format+"\n", append([]any{c, rec.id}, args...)...)
		return rec
	}
	req := serve.SubmitRequest{
		User:     "user-" + strconv.Itoa(c),
		Weight:   float64(c + 1),
		Spec:     json.RawMessage(ref.src),
		BaseSeed: in.BaseSeed,
	}
	if c == 0 {
		req.Priority = 1
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fail("%v", err)
	}
	sp := tr.begin("http.submit", "", rec.traceID)
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("submit: %v", err)
	}
	var view serve.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	rec.submit = time.Since(rec.start)
	tr.end(sp)
	if resp.StatusCode != http.StatusCreated || err != nil {
		return fail("submit: HTTP %d (%v)", resp.StatusCode, err)
	}
	rec.id = view.ID
	tr.setKey(rec.traceID, rec.id)

	sp = tr.begin("http.results", rec.id, rec.traceID)
	resp, err = client.Get(url + "/v1/jobs/" + rec.id + "/results")
	if err != nil {
		return fail("results: %v", err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if rec.cells == 0 {
			rec.first = time.Since(rec.start)
		}
		rec.cells++
		rec.last = time.Now()
	}
	err = sc.Err()
	resp.Body.Close()
	tr.end(sp)
	if resp.StatusCode != http.StatusOK || err != nil {
		return fail("results: HTTP %d (%v)", resp.StatusCode, err)
	}
	if rec.cells != ref.cells {
		return fail("streamed %d result lines, want %d", rec.cells, ref.cells)
	}

	sp = tr.begin("http.artifact", rec.id, rec.traceID)
	resp, err = client.Get(url + "/v1/jobs/" + rec.id + "/artifact?format=json")
	if err != nil {
		return fail("artifact: %v", err)
	}
	art, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.done = time.Since(rec.start)
	tr.end(sp)
	if resp.StatusCode != http.StatusOK || err != nil {
		return fail("artifact: HTTP %d (%v)", resp.StatusCode, err)
	}
	if !bytes.Equal(art, ref.json) {
		return fail("artifact differs from the batch reference")
	}

	if tr != nil {
		sp = tr.begin("http.status", rec.id, rec.traceID)
		resp, err = client.Get(url + "/v1/jobs/" + rec.id)
		if err != nil {
			return fail("status: %v", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&rec.view)
		resp.Body.Close()
		tr.end(sp)
		if resp.StatusCode != http.StatusOK || err != nil {
			return fail("status: HTTP %d (%v)", resp.StatusCode, err)
		}
		unix := func(ms int64) int64 { return tr.at(time.UnixMilli(ms)) }
		v := rec.view
		tr.add(span{Parent: rec.traceID, Name: "serve.queue", Key: rec.id, StartNS: unix(v.SubmittedUnix), EndNS: unix(v.StartedUnix)})
		tr.add(span{Parent: rec.traceID, Name: "serve.exec", Key: rec.id, StartNS: unix(v.StartedUnix), EndNS: unix(v.FinishedUnix)})
	}
	rec.ok = true
	return rec
}

// daemonSlots is the daemon's job-slot count; with nproc sweep workers
// per job, slots × workers stays at nproc.
const daemonSlots = 1

func runDaemon(cfg config) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	nboot := 0
	newDaemon := func() (*daemon, error) {
		nboot++
		return boot(filepath.Join(cfg.work, "data-"+strconv.Itoa(nboot)), daemonSlots, cfg.nproc)
	}
	bootDir := filepath.Join(cfg.work, "boot")
	boots, err := setupTimes(func() error { return bootOnce(bootDir, cfg.nproc) })
	if err != nil {
		return nil, err
	}
	parses, err := setupTimes(func() error {
		for _, src := range daemonSources {
			if _, _, err := loadSpec(cfg.root, src, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	refs, err := daemonRefs(cfg)
	if err != nil {
		return nil, err
	}
	resetPeakRSS()

	phase := func(dur time.Duration, tr *tracer) (*mixStats, error) {
		d, err := newDaemon()
		if err != nil {
			return nil, err
		}
		defer d.stop()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0, cpu0 := time.Now(), cpuTime()
		st := &mixStats{jobs: mixPhase(cfg, d, refs, dur, tr)}
		st.wall, st.cpu = time.Since(t0), cpuTime()-cpu0
		runtime.ReadMemStats(&m1)
		st.alloc = m1.TotalAlloc - m0.TotalAlloc
		return st, nil
	}

	dur := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		mix, err := phase(dur, nil)
		if err != nil {
			return nil, err
		}
		out.checkJobs(mix.jobs)
		daemonEndToEnd(out, refs, boots, mix)
		return out, nil
	}

	untracedMix, err := phase(dur/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tracedMix, err := phase(dur/2, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	untraced, traced := untracedMix.jobs, tracedMix.jobs
	out.checkJobs(untraced)
	out.checkJobs(traced)
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	recordMS, err := replayJournal(cfg, refs)
	if err != nil {
		return nil, err
	}
	if err := saveTrace(cfg, tr); err != nil {
		return nil, err
	}
	daemonPerLayer(out, cfg, refs, boots, parses, untraced, traced, recordMS, shares)
	return out, nil
}

func (o *outcome) checkJobs(jobs []jobRec) {
	o.attempted += len(jobs)
	for _, j := range jobs {
		if !j.ok {
			o.fail("job %s (client %d) did not complete correctly", j.id, j.client)
		}
	}
}

// replayJournal times Journal.Record on the reference runs' results,
// written to a fresh journal on the daemon's file system: the daemon's
// own journal writes cannot be timed from outside it.
func replayJournal(cfg config, refs map[jobInput]*daemonRef) ([]float64, error) {
	const records = 120
	var out []float64
	for n := 0; len(out) < records; n++ {
		for in, ref := range refs {
			spec, raw, err := loadSpec(cfg.root, daemonSources[in.Source], in.BaseSeed)
			if err != nil {
				return nil, err
			}
			jl, err := sweep.CreateJournal(filepath.Join(cfg.work, fmt.Sprintf("replay-%d-%d-%d", n, in.Source, in.BaseSeed)), sweep.NewManifest(spec, raw, ""))
			if err != nil {
				return nil, err
			}
			for i := range ref.plain.runs {
				t0 := time.Now()
				if err := jl.Record(&ref.plain.runs[i]); err != nil {
					return nil, err
				}
				out = append(out, ms(time.Since(t0)))
			}
		}
	}
	return out, nil
}

// mixStats is one mix phase: its jobs and what the process spent.
type mixStats struct {
	jobs  []jobRec
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

func daemonEndToEnd(o *outcome, refs map[jobInput]*daemonRef, boots []float64, mix *mixStats) {
	jobs, wall := mix.jobs, mix.wall
	var done, first []float64
	cells, vcpuS := 0, 0.0
	for _, j := range jobs {
		if !j.ok {
			continue
		}
		done = append(done, ms(j.done))
		first = append(first, ms(j.first))
		cells += j.cells
		vcpuS += refs[j.in].counts.VCPUSeconds
	}
	v := o.values
	v["setup_s"] = median(boots)
	v["cpu_ms_per_cell"] = ratio(ms(mix.cpu), float64(cells))
	v["alloc_mb"] = ratio(float64(mix.alloc)/1e6, float64(len(jobs)))
	v["peak_rss_mb"] = peakRSSMB()
	v["ok_frac"] = 1 - ratio(float64(min(o.failed, o.attempted)), float64(o.attempted))

	o.note("setup_s", v["setup_s"], "s", len(boots))
	o.note("job_done_p50_ms", quantile(done, 0.5), "ms", len(done))
	o.note("job_done_p90_ms", quantile(done, 0.9), "ms", len(done))
	o.note("first_cell_p50_ms", median(first), "ms", len(first))
	o.note("first_cell_p90_ms", quantile(first, 0.9), "ms", len(first))
	o.note("daemon_cells_per_s", float64(cells)/wall.Seconds(), "1/s", cells)
	o.note("sim_vcpu_s_per_s", vcpuS/wall.Seconds(), "vcpu_s/s", len(done))
	o.note("cpu_ms_per_cell", v["cpu_ms_per_cell"], "ms", cells)
	o.note("alloc_mb", v["alloc_mb"], "MB/job", len(jobs))
	o.note("peak_rss_mb", v["peak_rss_mb"], "MB", 0)
	o.note("failed_frac", 1-v["ok_frac"], "frac", o.attempted)
}

func daemonPerLayer(o *outcome, cfg config, refs map[jobInput]*daemonRef, boots, parses []float64, untraced, traced []jobRec, recordMS []float64, shares map[string]float64) {
	var cc cellCounts
	var cellMS, aggMS, emitMS []float64
	var busy, capacity float64
	records := 0
	for _, ref := range refs {
		cc.add(ref.counts)
		records += ref.cells
		for _, rr := range ref.plain.runs {
			cellMS = append(cellMS, ms(rr.Elapsed))
			busy += float64(rr.Elapsed)
		}
		capacity += float64(cfg.nproc) * float64(ref.plain.execWall)
		aggMS = append(aggMS, ms(ref.plain.aggregate))
		emitMS = append(emitMS, ms(ref.plain.emit))
	}
	var (
		submit, wait, exec, tail, doneA, doneB []float64
		execNS, events                         float64
	)
	cellsBy := map[int]float64{}
	for _, j := range untraced {
		if j.ok {
			doneA = append(doneA, ms(j.done))
		}
	}
	for _, j := range traced {
		if !j.ok {
			continue
		}
		doneB = append(doneB, ms(j.done))
		v := j.view
		submit = append(submit, ms(j.submit))
		wait = append(wait, float64(v.StartedUnix-v.SubmittedUnix))
		exec = append(exec, float64(v.FinishedUnix-v.StartedUnix))
		tail = append(tail, float64(j.last.UnixMilli()-v.FinishedUnix))
		execNS += float64(v.FinishedUnix-v.StartedUnix) * 1e6
		events += float64(refs[j.in].counts.Events)
		cellsBy[j.client] += float64(j.cells)
	}
	// Share error: each user's share of the completed cells against its
	// share of the fair-share weights (client c has weight c+1).
	shareErr, totalCells, totalW := 0.0, 0.0, 0.0
	for c := 0; c < cfg.nproc; c++ {
		totalCells += cellsBy[c]
		totalW += float64(c + 1)
	}
	for c := 0; c < cfg.nproc; c++ {
		shareErr = max(shareErr, abs(ratio(cellsBy[c], totalCells)-float64(c+1)/totalW))
	}

	v := o.values
	v["spec.parse_ms"] = median(parses) * 1e3
	v["sim.events"] = float64(cc.Events)
	v["sim.ns_per_event"] = ratio(execNS, events)
	v["xen.dispatches"] = float64(cc.Dispatches)
	v["xen.preemptions"] = float64(cc.Preemptions)
	v["credit.calls"] = float64(cc.SchedCalls)
	v["credit.self_ms"] = float64(cc.SchedSelfNS) / 1e6
	v["scenario.run_ms_p50"] = quantile(cellMS, 0.5)
	v["scenario.run_ms_p90"] = quantile(cellMS, 0.9)
	for _, n := range []string{"fleet.run_ms", "fleet.shard_speedup", "fleet.placements", "fleet.migrations"} {
		v[n] = 0
	}
	v["sweep.pool_busy_frac"] = ratio(busy, capacity)
	v["sweep.aggregate_ms"] = median(aggMS)
	v["sweep.emit_ms"] = median(emitMS)
	v["journal.records"] = float64(records)
	v["journal.record_ms_p50"] = quantile(recordMS, 0.5)
	v["journal.record_ms_p90"] = quantile(recordMS, 0.9)
	v["serve.boot_ms"] = median(boots) * 1e3
	v["serve.submit_ms_p50"] = quantile(submit, 0.5)
	v["serve.submit_ms_p90"] = quantile(submit, 0.9)
	v["serve.queue_wait_ms_p50"] = quantile(wait, 0.5)
	v["serve.queue_wait_ms_p90"] = quantile(wait, 0.9)
	v["serve.exec_ms"] = median(exec)
	v["serve.stream_tail_ms"] = median(tail)
	v["fairshare.share_error"] = shareErr
	v["trace_overhead_frac"] = median(doneB)/median(doneA) - 1
	for _, bk := range cpuBuckets {
		v["cpu_share."+bk] = shares[bk]
	}
	o.note("jobs_untraced", float64(len(untraced)), "count", 0)
	o.note("jobs_traced", float64(len(traced)), "count", 0)
	for _, k := range sortedKeys(v) {
		o.note(k, v[k], "", 0)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
