package sweep

import (
	"bytes"
	"strings"
	"testing"
)

// TestFleetWorkersDeterminism: intra-run sharding, alone and nested
// under sweep-level parallelism, must leave every artifact byte
// untouched — the faultSpecJSON grid exercises crashes, storms, flaky
// migrations and recovery retries through the epoch-parallel loop.
func TestFleetWorkersDeterminism(t *testing.T) {
	artifacts := func(opts Options) (string, string) {
		spec, err := Parse([]byte(faultSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exec(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, rr := range res.Runs {
			if rr.Err != nil {
				t.Fatalf("run %s/%s failed: %v", rr.Scenario, rr.Policy, rr.Err)
			}
		}
		var j, c bytes.Buffer
		if err := res.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}

	jSerial, cSerial := artifacts(Options{Workers: 1, FleetWorkers: 1})
	cases := []struct {
		name string
		opts Options
	}{
		{"fleet-workers=4", Options{Workers: 1, FleetWorkers: 4}},
		{"nested workers=4 fleet-workers=4", Options{Workers: 4, FleetWorkers: 4}},
	}
	for _, c := range cases {
		j, cs := artifacts(c.opts)
		if j != jSerial {
			t.Errorf("%s: JSON artifact differs from the serial run", c.name)
		}
		if cs != cSerial {
			t.Errorf("%s: CSV artifact differs from the serial run", c.name)
		}
	}
}

// TestFleetWorkersSpecRejectsNegative: a fleet block naming "workers"
// fails at parse time, not mid-sweep. Shard counts are an execution
// option (-fleet-workers), never part of a spec, so the field is
// unknown.
func TestFleetWorkersSpecRejectsNegative(t *testing.T) {
	bad := strings.Replace(faultSpecJSON, `"hosts": 4,`, `"hosts": 4, "workers": -2,`, 1)
	if _, err := Parse([]byte(bad)); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Errorf("negative fleet workers hint accepted at parse time, err = %v", err)
	}
}
