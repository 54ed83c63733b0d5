package main

// pinnedSpec is one spec's expected outcome at the default seed.
type pinnedSpec struct {
	Digest string     // sha256 over the JSON and CSV artifacts
	Counts cellCounts // exact simulator counts summed over the spec's cells
}

// pinned holds the batch workloads' outcomes at the default seed, in
// spec order. The digests equal those of `aqlsweep -spec <spec> -out`
// artifacts; they change only when the program's results change.
var pinned = map[string][]pinnedSpec{
	"paper-grid": {
		{"a86b54721cffdb45a5e372978cb72de01992e7c2a3d8a695e38977fe7ddab645",
			cellCounts{Events: 2826753, Dispatches: 348077, Preemptions: 847, SchedCalls: 1045379}},
		{"3be4f509a5cd13ac79fbc5b78b9648e9c92f973d25831ef778063a11a1340d56",
			cellCounts{Events: 2911703, Dispatches: 494386, Preemptions: 852, SchedCalls: 1486526}},
	},
	"fleet-dc": {
		{"04de46c32cc969ae13e2980cdc510521550d96421d803b13f0e98e90796cd485",
			cellCounts{Events: 8454145, Dispatches: 54579, Preemptions: 2291, SchedCalls: 171553}},
		{"7caebd9d7f15f9f3786d2f180b400dc67a64d2e09244db8f02def65456cac3e9",
			cellCounts{Events: 2851235, Dispatches: 21318, Preemptions: 1073, SchedCalls: 67870}},
	},
}
