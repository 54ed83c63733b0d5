package hw_test

import (
	"reflect"
	"strings"
	"testing"

	"aqlsched/internal/catalog"
	"aqlsched/internal/hw"
)

// The named-machine registry lives in the catalog; these tests pin that
// the paper's machines reach it intact from this package's constructors.

func TestTopologyRegistry(t *testing.T) {
	names := catalog.Topologies.Names()
	if len(names) < 2 {
		t.Fatalf("registry too small: %v", names)
	}
	for _, want := range []string{"i7-3770", "xeon-e5-4603"} {
		if !catalog.Topologies.Has(want) {
			t.Errorf("paper machine %q not registered (have %v)", want, names)
		}
	}

	i7, err := catalog.TopologyByName("i7-3770")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(i7, hw.I73770()) {
		t.Error("registry i7-3770 differs from I73770()")
	}
	// Lookups return fresh copies, never a shared value.
	other, _ := catalog.TopologyByName("i7-3770")
	if i7 == other {
		t.Error("registry handed out the same *Topology twice")
	}

	if _, err := catalog.TopologyByName("pdp-11"); err == nil || !strings.Contains(err.Error(), "pdp-11") {
		t.Errorf("unknown topology error = %v", err)
	}
}

func TestRegisterTopologyGuards(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("empty name", func() { catalog.Topologies.Register("", hw.I73770) })
	expectPanic("nil factory", func() { catalog.Topologies.Register("x", nil) })
	expectPanic("duplicate", func() { catalog.Topologies.Register("i7-3770", hw.I73770) })
	if catalog.Topologies.Has("x") {
		t.Error("a rejected registration was kept")
	}
}
