// Package catalog is where experiment names resolve: the name → factory
// registries between the paper's concrete catalogue (machines,
// benchmark apps, colocation scenarios, scheduling policies) and
// everything that references experiment axes by name (sweep spec files,
// cmd/aqlsweep, cmd/aqlsim, the experiments package). Machines,
// scenarios and workloads each have a Registry, policies a plugin
// registry; the paper's entries register themselves in papers.go, and
// new entries — generated scenarios, custom machines — join through the
// same Register calls, so spec authors and tools discover every valid
// name from one place. Metrics are registered with their Desc in
// internal/metrics, which importing the catalog populates.
//
// Registries hold factories, not values: every lookup constructs fresh
// state, which is what lets the sweep layer run grid cells concurrently
// without sharing topologies, app slices or policy controllers.
package catalog

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"aqlsched/internal/hw"
	"aqlsched/internal/metrics"
	"aqlsched/internal/scenario"
	"aqlsched/internal/workload"
)

// Registry is a concurrency-safe name → factory table for one kind of
// catalog entry.
type Registry[T any] struct {
	kind string
	mu   sync.RWMutex
	m    map[string]T
}

// NewRegistry returns an empty registry; kind names the entry type in
// error messages ("scenario", "workload", ...).
func NewRegistry[T any](kind string) *Registry[T] {
	return &Registry[T]{kind: kind, m: map[string]T{}}
}

// Register adds an entry. It panics on an empty name, a nil factory or a
// duplicate: registries are populated from init functions and a
// collision is a programming error, not an input error.
func (r *Registry[T]) Register(name string, v T) {
	if name == "" {
		panic("catalog: Register with empty " + r.kind + " name")
	}
	if rv := reflect.ValueOf(&v).Elem(); rv.Kind() == reflect.Func && rv.IsNil() {
		panic(fmt.Sprintf("catalog: %s %q registered with a nil factory", r.kind, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("catalog: %s %q registered twice", r.kind, name))
	}
	r.m[name] = v
}

// Lookup finds an entry by name.
func (r *Registry[T]) Lookup(name string) (T, error) {
	r.mu.RLock()
	v, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		var zero T
		return zero, fmt.Errorf("catalog: unknown %s %q (known: %s)", r.kind, name, strings.Join(r.Names(), ", "))
	}
	return v, nil
}

// Has reports whether name is registered.
func (r *Registry[T]) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.m[name]
	return ok
}

// Names lists the registered names, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// --- Domain registries -----------------------------------------------------

// Policy is one resolvable policy axis point: the canonical display
// name plus a constructor returning a fresh policy instance per run.
// Policies are parameterized ("fixed:10ms", "aql-w:8"), so they resolve
// through the plugin registry of plugin.go rather than a Registry.
type Policy struct {
	Name string
	New  func() scenario.Policy
}

// Topologies maps machine names (the paper's i7-3770 and
// xeon-e5-4603, and anything registered later) to topology factories.
var Topologies = NewRegistry[func() *hw.Topology]("topology")

// Scenarios maps scenario names (S1..S5, four-socket, and anything
// registered later) to spec constructors.
var Scenarios = NewRegistry[func() scenario.Spec]("scenario")

// Workloads maps benchmark application names to AppSpec factories.
var Workloads = NewRegistry[func() workload.AppSpec]("workload")

// TopologyByName returns a fresh copy of a registered machine.
func TopologyByName(name string) (*hw.Topology, error) {
	f, err := Topologies.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// WorkloadByName resolves a benchmark application by name, with a
// clean error for user-supplied names (spec files).
func WorkloadByName(name string) (workload.AppSpec, error) {
	f, err := Workloads.Lookup(name)
	if err != nil {
		return workload.AppSpec{}, err
	}
	return f(), nil
}

// MetricByName resolves one metric descriptor of the registry in
// internal/metrics, with a clean error for user-supplied names
// (aqlsweep -metrics).
func MetricByName(name string) (metrics.Desc, error) {
	if d, ok := metrics.DescByName(name); ok {
		return d, nil
	}
	names := make([]string, 0, len(metrics.Descs()))
	for _, d := range metrics.Descs() {
		names = append(names, d.Name)
	}
	return metrics.Desc{}, fmt.Errorf("catalog: unknown metric %q (known: %s)", name, strings.Join(names, ", "))
}
