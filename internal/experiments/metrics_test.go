package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"mellow/internal/metrics"
	"mellow/internal/policy"
)

// runMetered is the test shorthand: one metrics-on simulation
// against a fresh cache.
func runMetered(t *testing.T, seed uint64) *metrics.Snapshot {
	t.Helper()
	ResetCache()
	spec, err := policy.Parse("Norm")
	if err != nil {
		t.Fatal(err)
	}
	ins, err := runNamed(context.Background(), tinyConfig(seed), spec, "stream",
		Observation{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if ins.Metrics == nil {
		t.Fatal("Run with Metrics returned no snapshot")
	}
	return ins.Metrics
}

// TestRunMetricsPreservesResult pins the per-run collector
// contract: attaching a metrics registry must not perturb the
// simulation. The instrumented result must equal the plain one
// bit-for-bit.
func TestRunMetricsPreservesResult(t *testing.T) {
	ResetCache()
	cfg := tinyConfig(7)
	spec, err := policy.Parse("Norm")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runPlain(context.Background(), cfg, spec, "stream")
	if err != nil {
		t.Fatal(err)
	}
	instr, err := runNamed(context.Background(), cfg, spec, "stream",
		Observation{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	snap := instr.Metrics
	if !reflect.DeepEqual(plain, instr.Result) {
		t.Error("instrumented result differs from plain result")
	}
	if snap == nil || len(snap.Families) == 0 {
		t.Fatal("no per-run snapshot")
	}
	// The two runs must be distinct cache entries: the metrics flag is
	// part of the content key, since the memoised values differ.
	if st := CacheSnapshot(); st.Entries != 2 {
		t.Errorf("cache entries = %d, want 2 (plain and instrumented keys)", st.Entries)
	}
}

// TestRunMetricsSnapshotDeterministic re-simulates the same key
// against a cleared cache and requires byte-equal snapshot JSON — the
// property that lets per-run metrics ride the content-addressed result
// cache.
func TestRunMetricsSnapshotDeterministic(t *testing.T) {
	a := runMetered(t, 31)
	b := runMetered(t, 31)
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Error("per-run snapshots differ across identical runs")
	}

	// Spot-check the taxonomy: one family per instrumented layer, and
	// the memory counters actually counted.
	for _, name := range []string{
		"sim_cpu_instructions_total",
		"sim_cache_demand_reads_total",
		"sim_mem_reads_total",
		"sim_wear_max_bank_damage",
	} {
		if _, ok := a.Get(name); !ok {
			t.Errorf("snapshot missing %s", name)
		}
	}
	if v := a.Value("sim_mem_reads_total"); v <= 0 {
		t.Errorf("sim_mem_reads_total = %v, want > 0", v)
	}
}
