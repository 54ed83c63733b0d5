package sweep

import (
	"testing"

	"aqlsched/examples/specs"
)

// FuzzSpecParse throws arbitrary bytes at the spec-file parser, seeded
// with every shipped example spec. The property under test: Parse never
// panics and never hangs — rejected input gets an error, accepted input
// yields a spec whose grid expands within the validation caps (host
// count, vCPU budgets, churn arrival count, storm event count), so a
// hostile spec file can fail but cannot wedge or OOM the process.
func FuzzSpecParse(f *testing.F) {
	entries, err := specs.FS.ReadDir(".")
	if err != nil || len(entries) == 0 {
		f.Fatalf("no example specs found to seed the corpus: %v", err)
	}
	for _, e := range entries {
		data, err := specs.FS.ReadFile(e.Name())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"scenarios": [{"gen": {"vcpus": 999999999, "mix": {"IOInt": 1}}}], "policies": ["xen"]}`))
	f.Add([]byte(`{"scenarios": [{"fleet": {"hosts": 1e9, "vcpus": 8, "mix": {"IOInt": 1}}}], "policies": ["xen"]}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		// Accepted specs must expand and re-validate cleanly: the grid is
		// what Exec would iterate, so expansion itself has to be cheap and
		// panic-free for anything Parse lets through.
		if err := spec.Validate(); err != nil {
			t.Fatalf("Parse accepted a spec that fails Validate: %v", err)
		}
		if len(spec.Runs()) == 0 {
			t.Fatal("accepted spec expands to an empty grid")
		}
	})
}
