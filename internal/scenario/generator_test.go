package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// noopPolicy is the minimal runnable policy (unmodified credit).
type noopPolicy struct{}

func (noopPolicy) Name() string                                         { return "noop" }
func (noopPolicy) Setup(h *xen.Hypervisor, deps []*workload.Deployment) {}

func genSpec() GenSpec {
	return GenSpec{
		Name:  "gen-test",
		VCPUs: 16,
		Mix: map[vcputype.Type]float64{
			vcputype.IOInt:   0.25,
			vcputype.ConSpin: 0.25,
			vcputype.LLCF:    0.25,
			vcputype.LLCO:    0.25,
		},
		Seed: 0xA91,
	}
}

// TestGenerateDeterministic: the expansion is a pure function of the
// GenSpec — expanding twice (as every sweep run does) yields deeply
// equal populations, and a different seed yields a different one.
func TestGenerateDeterministic(t *testing.T) {
	g := genSpec()
	a, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same GenSpec expanded differently:\n%+v\n%+v", a.Apps, b.Apps)
	}
	g2 := genSpec()
	g2.Seed = 0xA92
	c, err := g2.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Apps, c.Apps) {
		t.Error("different generator seeds drew identical populations")
	}
	// Expansions must not share the topology value across runs.
	if a.Topo == b.Topo {
		t.Error("two expansions share one *hw.Topology")
	}
}

// frozenGenDigest is the sha256 of genDigest(frozenGenSpec()),
// recorded while GenSpec.Generate still carried its own population and
// churn loops. It is an independent reference for the draw order of
// every generator feature at once: fixed apps, a mix with lock gangs
// (clamped to the budget), phased VMs and churn.
const frozenGenDigest = "934436c1b8d07808bc48d004c3004c47a40a574e42a92c6aa1bab2b2c560498e"

func frozenGenSpec() GenSpec {
	g := genSpec()
	g.VCPUs = 26 // the last draw is a ConSpin gang clamped to 3 vCPUs
	g.Fixed = []workload.AppSpec{workload.ByName("bzip2"), workload.ByName("facesim")}
	g.Phases = []workload.AppPhase{
		{Dur: 300 * sim.Millisecond, Type: vcputype.LLCF},
		{Dur: 200 * sim.Millisecond, Type: vcputype.IOInt},
	}
	g.PhaseProb = 0.4
	g.Churn = &ChurnSpec{Rate: 20, MeanLifetime: 300 * sim.Millisecond, Horizon: 800 * sim.Millisecond}
	return g
}

// genDigest is a sha256 over the generated name, guest pCPUs, standing
// population and churn timeline, in their JSON encoding (which
// round-trips float64 values bit-exactly).
func genDigest(t *testing.T, s Spec) string {
	t.Helper()
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(struct {
		Name     string
		PCPUs    any
		Apps     []Entry
		Arrivals []Arrival
	}{s.Name, s.GuestPCPUs, s.Apps, s.Arrivals}); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateFrozenDigest: the generator's output must not drift.
func TestGenerateFrozenDigest(t *testing.T) {
	g := frozenGenSpec()
	s, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Arrivals) == 0 {
		t.Fatal("frozen spec drew no churn arrivals")
	}
	if got := genDigest(t, s); got != frozenGenDigest {
		t.Errorf("generator digest %s, want the frozen %s", got, frozenGenDigest)
	}
}

// TestGenerateBudget: the population consumes exactly the vCPU budget
// and provisions ceil(VCPUs/OverSub) guest pCPUs.
func TestGenerateBudget(t *testing.T) {
	g := genSpec()
	g.OverSub = 4
	s, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	vcpus := 0
	for _, e := range s.Apps {
		n := 1
		if e.Spec.Kind == workload.KindLock {
			n = e.Spec.Threads
		}
		vcpus += n * e.Count
	}
	if vcpus != 16 {
		t.Errorf("population spans %d vCPUs, want exactly 16", vcpus)
	}
	if len(s.GuestPCPUs) != 4 {
		t.Errorf("%d guest pCPUs, want 4 (16 vCPUs / oversub 4)", len(s.GuestPCPUs))
	}
	// Over-subscription capped by the machine: 64 vCPUs at ratio 1 on
	// the 8-core i7 must clamp to 8 pCPUs.
	g.VCPUs, g.OverSub = 64, 1
	s, err = g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.GuestPCPUs) != 8 {
		t.Errorf("%d guest pCPUs, want clamp to machine size 8", len(s.GuestPCPUs))
	}
}

// TestGenerateFixedApps: named apps deploy first and count against the
// budget; synthetic VMs fill the remainder.
func TestGenerateFixedApps(t *testing.T) {
	g := genSpec()
	g.VCPUs = 8
	g.Fixed = []workload.AppSpec{workload.ByName("bzip2"), workload.ByName("facesim")}
	s, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Apps) < 3 {
		t.Fatalf("only %d apps; fixed apps not supplemented", len(s.Apps))
	}
	if s.Apps[0].Spec.Name != "bzip2" || s.Apps[1].Spec.Name != "facesim" {
		t.Errorf("fixed apps not deployed first: %s, %s", s.Apps[0].Spec.Name, s.Apps[1].Spec.Name)
	}
	vcpus := 0
	for _, e := range s.Apps {
		n := 1
		if e.Spec.Kind == workload.KindLock {
			n = e.Spec.Threads
		}
		vcpus += n
	}
	if vcpus != 8 {
		t.Errorf("population spans %d vCPUs, want 8 (bzip2=1 + facesim=4 + 3 synthetic)", vcpus)
	}
}

// TestGenerateMixOnly: only mixed-in types are drawn, and gang sizes
// clamp to the remaining budget.
func TestGenerateMixShape(t *testing.T) {
	g := genSpec()
	g.Mix = map[vcputype.Type]float64{vcputype.ConSpin: 1}
	g.VCPUs = 9
	s, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, e := range s.Apps {
		if e.Spec.Expected != vcputype.ConSpin {
			t.Errorf("drew %v from a ConSpin-only mix", e.Spec.Expected)
		}
		total += e.Spec.Threads
	}
	if total != 9 {
		t.Errorf("gangs span %d vCPUs, want exactly 9 (last gang clamped)", total)
	}
	names := map[string]bool{}
	for _, e := range s.Apps {
		if names[e.Spec.Name] {
			t.Errorf("duplicate generated VM name %q", e.Spec.Name)
		}
		names[e.Spec.Name] = true
	}
}

// TestGenerateRuns: a small generated scenario actually runs end to end.
func TestGenerateRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	g := genSpec()
	g.VCPUs = 8
	s, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	s.Warmup = 200 * sim.Millisecond
	s.Measure = 400 * sim.Millisecond
	res := Run(s, noopPolicy{})
	if len(res.Apps) == 0 {
		t.Fatal("generated scenario produced no measurements")
	}
	for _, a := range res.Apps {
		if a.Instances < 1 {
			t.Errorf("app %s: %d instances", a.Name, a.Instances)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []struct {
		name string
		mut  func(*GenSpec)
	}{
		{"zero vcpus", func(g *GenSpec) { g.VCPUs = 0 }},
		{"negative oversub", func(g *GenSpec) { g.OverSub = -1 }},
		{"missing mix", func(g *GenSpec) { g.Mix = nil }},
		{"bad weight", func(g *GenSpec) { g.Mix[vcputype.LLCF] = -2 }},
		{"fixed overflow", func(g *GenSpec) {
			g.VCPUs = 2
			g.Fixed = []workload.AppSpec{workload.ByName("facesim")} // 4 threads
		}},
		{"bad topology", func(g *GenSpec) { g.Topo = &hw.Topology{} }},
	}
	for _, tc := range bad {
		g := genSpec()
		tc.mut(&g)
		if _, err := g.Generate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Fixed-only specs need no mix.
	g := genSpec()
	g.Mix = nil
	g.VCPUs = 4
	g.Fixed = []workload.AppSpec{workload.ByName("facesim")}
	if _, err := g.Generate(); err != nil {
		t.Errorf("fixed-only generator rejected: %v", err)
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix(map[string]float64{"IOInt": 0.5, "LLCO": 0.5})
	if err != nil || len(m) != 2 || m[vcputype.IOInt] != 0.5 {
		t.Fatalf("ParseMix = %v, %v", m, err)
	}
	for _, bad := range []map[string]float64{
		nil,
		{},
		{"IOBound": 1},
		{"IOInt": 0},
		{"IOInt": -1},
	} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%v) accepted", bad)
		}
	}
	if _, err := ParseMix(map[string]float64{"IOBound": 1}); err == nil || !strings.Contains(err.Error(), "IOBound") {
		t.Errorf("unknown type error unhelpful: %v", err)
	}
}
