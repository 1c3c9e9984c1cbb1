package trace_test

import (
	"context"
	"sync/atomic"
	"testing"

	"mellow/internal/config"
	"mellow/internal/experiments"
	"mellow/internal/rng"
	"mellow/internal/scenario"
	"mellow/internal/trace"
)

// TestScenarioBuildsShapeOnce: every cell of a scenario that names one
// inline hot-set spec shares one resolved workload, so the Zipf shape is
// built once per RunScenario, not once per cell.
func TestScenarioBuildsShapeOnce(t *testing.T) {
	var built atomic.Int32
	defer trace.SwapNewZipfShape(func(n uint64, theta float64) *rng.ZipfShape {
		built.Add(1)
		return rng.NewZipfShape(n, theta)
	})()
	sp, err := trace.SpecByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	sc := &scenario.Scenario{
		Name:      "hot-shape",
		Workloads: []scenario.WorkloadRef{{Name: "inline-hmmer", Spec: &sp}},
		Policies:  []string{"Norm", "BE-Mellow+SC", "BE-Mellow+SC+WQ"},
	}
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 0
	cfg.Run.DetailedInstructions = 20_000
	cfg.Run.Seed = 631
	experiments.ResetCache()
	res, err := experiments.RunScenario(context.Background(), cfg, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(res.Cells))
	}
	if n := built.Load(); n != 1 {
		t.Fatalf("Zipf shapes built = %d, want 1 for 3 cells of one workload", n)
	}
}
