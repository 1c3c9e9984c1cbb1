package experiments

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/policy"
	"mellow/internal/scenario"
	"mellow/internal/trace"
)

// scenarioBase keeps scenario-runner tests fast and write-heavy: a
// small LLC fills within the short run so dirty evictions reach memory.
func scenarioBase() config.Config {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 50_000
	cfg.Run.DetailedInstructions = 100_000
	cfg.Caches.L3.SizeBytes = 256 << 10
	return cfg
}

// A scenario cell for a builtin workload must report exactly what the
// figure sweeps' Run reports — one simulation path, one result.
func TestRunScenarioMatchesRun(t *testing.T) {
	ResetCache()
	base := scenarioBase()
	sc := &scenario.Scenario{
		Name:      "t",
		Workloads: []scenario.WorkloadRef{{Name: "gups"}},
		Policies:  []string{"Norm", "BE-Mellow+SC"},
	}
	res, err := RunScenario(context.Background(), base, sc, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	for _, cell := range res.Cells {
		pspec, err := policy.Parse(cell.Policy)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runPlain(context.Background(), base, pspec, cell.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cell.Result, want) {
			t.Errorf("%s/%s: scenario result differs from Run", cell.Workload, cell.Policy)
		}
	}
}

// ScenarioCells compiles workload-major, then leveler, then policy: a
// leveler is the cell's variant and its configuration's backend, and
// each cell's policy label keeps the document's spelling while its spec
// is the parsed policy.
func TestScenarioCellsOrder(t *testing.T) {
	base := scenarioBase()
	sc := &scenario.Scenario{
		Name:      "t",
		Workloads: []scenario.WorkloadRef{{Name: "gups"}, {Name: "stream"}},
		Policies:  []string{"Norm", "Slow@3x"},
		Levelers:  []string{"wolfram", "softwear"},
	}
	cells, err := ScenarioCells(base, sc)
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]string{
		{"gups", "wolfram", "Norm"}, {"gups", "wolfram", "Slow@3x"},
		{"gups", "softwear", "Norm"}, {"gups", "softwear", "Slow@3x"},
		{"stream", "wolfram", "Norm"}, {"stream", "wolfram", "Slow@3x"},
		{"stream", "softwear", "Norm"}, {"stream", "softwear", "Slow@3x"},
	}
	if len(cells) != len(want) {
		t.Fatalf("len(cells) = %d, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if got := [3]string{c.Label(), c.Variant, c.Policy}; got != want[i] {
			t.Errorf("cells[%d] = %v, want %v", i, got, want[i])
		}
		if c.Cfg.Memory.WearLeveler != c.Variant {
			t.Errorf("cells[%d] runs leveler %q under variant %q", i, c.Cfg.Memory.WearLeveler, c.Variant)
		}
		if spec := []string{"Norm", "Slow"}[i%2]; c.Spec.Name != spec {
			t.Errorf("cells[%d] spec = %q, want %q", i, c.Spec.Name, spec)
		}
	}
	// No levelers declared: one "" cell per (workload, policy) on the
	// configuration's own backend.
	sc.Levelers = nil
	cells, err = ScenarioCells(base, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 || cells[0].Variant != "" || cells[0].Cfg.Memory.WearLeveler != base.Memory.WearLeveler {
		t.Fatalf("leveler-less cells: %d, first variant %q on %q", len(cells), cells[0].Variant, cells[0].Cfg.Memory.WearLeveler)
	}
}

// runSpec runs an inline workload spec under the given label through
// the memo.
func runSpec(t *testing.T, cfg config.Config, pspec policy.Spec, name string, spec trace.Spec) core.Result {
	t.Helper()
	w, err := spec.Workload(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := Run(context.Background(), Cell{Cfg: cfg, Spec: pspec, Workload: w}, Observation{})
	if err != nil {
		t.Fatal(err)
	}
	return ins.Result
}

// An inline spec spelling out a builtin's exact parameterization must
// reproduce the builtin's result bit for bit. Under its own label it
// simulates through its own memo key; under the builtin's name it is
// the builtin's memo entry.
func TestInlineSpecMatchesBuiltin(t *testing.T) {
	ResetCache()
	base := scenarioBase()
	spec, err := trace.SpecByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	pspec, err := policy.Parse("Norm")
	if err != nil {
		t.Fatal(err)
	}
	inline := runSpec(t, base, pspec, "my-gups", spec)
	builtin, err := runPlain(context.Background(), base, pspec, "gups")
	if err != nil {
		t.Fatal(err)
	}
	// Everything but the label matches.
	inline.Workload = builtin.Workload
	if !reflect.DeepEqual(inline, builtin) {
		t.Fatal("inline gups spec result differs from the builtin workload")
	}

	before := CacheSnapshot()
	same := runSpec(t, base, pspec, "gups", spec)
	after := CacheSnapshot()
	if after.Misses != before.Misses || after.Hits != before.Hits+1 {
		t.Fatalf("inline gups spec named gups: misses %d -> %d, hits %d -> %d; want a hit on the builtin's entry",
			before.Misses, after.Misses, before.Hits, after.Hits)
	}
	if !reflect.DeepEqual(same, builtin) {
		t.Fatal("inline gups spec named gups differs from the builtin workload")
	}
}

// Run memoises an inline spec on its content hash: a second call must
// not simulate again.
func TestRunInlineSpecMemoises(t *testing.T) {
	ResetCache()
	base := scenarioBase()
	spec := trace.Spec{Kind: trace.KindStream, GapMean: 6, ReadArrays: 2, WriteArrays: 1, ArrayBytes: 4 << 20}
	pspec, err := policy.Parse("Norm")
	if err != nil {
		t.Fatal(err)
	}
	r1 := runSpec(t, base, pspec, "w", spec)
	before := CacheSnapshot().Hits
	r2 := runSpec(t, base, pspec, "w", spec)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("memoised result differs")
	}
	if CacheSnapshot().Hits <= before {
		t.Fatal("second Run of an inline spec missed the memo cache")
	}
}

// Per-cell levelers override the effective configuration: distinct
// backends must yield distinct results on a write-heavy workload, while
// the "" leveler reproduces the base backend exactly.
func TestRunScenarioLevelerCells(t *testing.T) {
	ResetCache()
	base := scenarioBase()
	// The run must be long enough for dirty lines to evict all the way
	// to memory, and the softwear epoch tight enough that its remaps
	// (and charged copy writes) land within it — otherwise both
	// backends idle and report identical results.
	warmup, detailed := uint64(300_000), uint64(600_000)
	epoch := 256
	sc := &scenario.Scenario{
		Name:      "t",
		Workloads: []scenario.WorkloadRef{{Name: "GemsFDTD"}},
		Policies:  []string{"Norm"},
		Levelers:  []string{"", "startgap", "softwear"},
		Overrides: &scenario.Overrides{Warmup: &warmup, Detailed: &detailed, SoftWearEpochWrites: &epoch},
	}
	res, err := RunScenario(context.Background(), base, sc, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(res.Cells))
	}
	// base default is startgap: "" and "startgap" agree.
	if !reflect.DeepEqual(res.Cells[0].Result, res.Cells[1].Result) {
		t.Error(`"" leveler differs from the base backend`)
	}
	if reflect.DeepEqual(res.Cells[1].Result, res.Cells[2].Result) {
		t.Error("startgap and softwear report identical results on gups")
	}
}

// Two runs of one scenario encode byte-identical documents — the golden
// contract, independent of goroutine completion order.
func TestRunScenarioDeterministicBytes(t *testing.T) {
	base := scenarioBase()
	sc := &scenario.Scenario{
		Name:      "t",
		Workloads: []scenario.WorkloadRef{{Name: "gups"}, {Name: "stream"}},
		Policies:  []string{"Norm", "B-Mellow+SC"},
	}
	ResetCache()
	r1, err := RunScenario(context.Background(), base, sc, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ResetCache() // force full re-simulation
	r2, err := RunScenario(context.Background(), base, sc, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("scenario documents differ across re-simulations")
	}
}

func TestRunScenarioProgressAndErrors(t *testing.T) {
	ResetCache()
	base := scenarioBase()
	sc := &scenario.Scenario{
		Name:      "t",
		Workloads: []scenario.WorkloadRef{{Name: "gups"}},
		Policies:  []string{"Norm", "Slow"},
	}
	var calls int
	res, err := RunScenario(context.Background(), base, sc, Hooks{Done: func(i int, _ Instrumented, err error) {
		calls++
		if i < 0 || i >= 2 || err != nil {
			t.Errorf("Done(%d, %v): want a cell index below 2 and no error", i, err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 || len(res.Cells) != 2 {
		t.Errorf("Done calls = %d for %d cells, want 2 for 2", calls, len(res.Cells))
	}

	// Validation failures surface before any simulation.
	bad := &scenario.Scenario{Name: "t", Workloads: []scenario.WorkloadRef{{Name: "nope"}}, Policies: []string{"Norm"}}
	if _, err := RunScenario(context.Background(), base, bad, Hooks{}); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	// A cancelled context aborts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunScenario(ctx, base, sc, Hooks{}); err == nil {
		t.Fatal("cancelled context not reported")
	}
}

// The corpus runner: update mode creates goldens, compare mode then
// passes, and drift is reported per scenario while the rest still runs.
func TestRunScenarioCorpusUpdateThenCompare(t *testing.T) {
	ResetCache()
	base := scenarioBase()
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "test-"+name+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("one", `{"name":"one","workloads":[{"name":"gups"}],"policies":["Norm"]}`)
	write("two", `{"name":"two","workloads":[{"name":"stream"}],"policies":["Norm"]}`)

	// Compare with no goldens: every scenario fails with the hint, but
	// all are attempted.
	ocs, err := RunScenarioCorpus(context.Background(), base, dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ocs) != 2 || ocs[0].Err == nil || ocs[1].Err == nil {
		t.Fatalf("outcomes = %+v", ocs)
	}
	if !strings.Contains(ocs[0].Err.Error(), "-update") {
		t.Errorf("missing-golden hint absent: %v", ocs[0].Err)
	}

	// Update writes both goldens; a clean compare follows.
	ocs, err = RunScenarioCorpus(context.Background(), base, dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range ocs {
		if oc.Err != nil || !oc.Updated {
			t.Fatalf("update outcome: %+v", oc)
		}
	}
	var seen []string
	ocs, err = RunScenarioCorpus(context.Background(), base, dir, false, func(oc ScenarioOutcome) {
		seen = append(seen, oc.Name)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range ocs {
		if oc.Err != nil {
			t.Fatalf("fresh golden drifted: %v", oc.Err)
		}
	}
	if len(seen) != 2 || seen[0] != "one" || seen[1] != "two" {
		t.Errorf("onDone order = %v", seen)
	}

	// Tampered golden: that scenario fails, the other still passes.
	gold := scenario.ExpectedPath(filepath.Join(dir, "test-one.json"))
	if err := os.WriteFile(gold, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ocs, err = RunScenarioCorpus(context.Background(), base, dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ocs[0].Err == nil || ocs[1].Err != nil {
		t.Fatalf("tamper detection: %+v", ocs)
	}
}

// The committed corpus must pass against its committed goldens — the
// same gate CI and scripts/e2e_scenario.sh run through the binaries.
func TestCommittedScenarioCorpusGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run in -short mode")
	}
	ResetCache()
	base := config.Default()
	base.Run.Seed = 1
	ocs, err := RunScenarioCorpus(context.Background(), base, filepath.Join("..", "..", "scenarios"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ocs) < 24 {
		t.Fatalf("corpus has %d scenarios, want >= 24", len(ocs))
	}
	for _, oc := range ocs {
		if oc.Err != nil {
			t.Errorf("%s: %v", oc.Name, oc.Err)
		}
	}
}
