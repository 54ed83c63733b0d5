package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one cell or
// job share Key. Scheduler calls are not spans: a cell span carries the
// count and summed self time of the scheduler calls it made.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: a root span
	Name     string `json:"name"`
	Key      string `json:"key,omitempty"`
	StartNS  int64  `json:"start_ns"` // since the tracer's origin
	EndNS    int64  `json:"end_ns"`
	Calls    int64  `json:"sched_calls,omitempty"`
	CallSelf int64  `json:"sched_self_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.origin).Nanoseconds() }

// begin opens a span starting now and returns its ID.
func (t *tracer) begin(name, key string, parent int) int {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Name: name, Key: key, StartNS: t.at(time.Now())})
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// setKey sets the shared identifier of an open span once it is known.
func (t *tracer) setKey(id int, key string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Key = key
	t.mu.Unlock()
}

// add records a complete span (one reconstructed after the fact, such as
// a cell timed by the sweep itself) and returns its ID.
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, k int) bool { return ivs[i].a < ivs[k].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover. Parallel children (cells on a worker pool)
// overlap; the union is subtracted once.
func selfTimes(spans []span) map[string]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += (s.EndNS - s.StartNS) - covered(s, kids[s.ID])
	}
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes renders the per-layer self-time table.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "perfbench: traced self time per span name (duration minus children's union):")
	for _, n := range names {
		fmt.Fprintf(w, "  %-18s %10.2f ms\n", n, float64(self[n])/1e6)
	}
}
