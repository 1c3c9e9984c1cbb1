package experiments

import (
	"context"
	"sync"
	"testing"

	"mellow/internal/policy"
	"mellow/internal/sched"
	"mellow/internal/trace"
)

// TestRunAllProgressOnError: a failing simulation must still reach the
// Done hook — once the error path returned before reporting progress,
// so a failed sweep's last reported fraction froze at an arbitrary
// value.
func TestRunAllProgressOnError(t *testing.T) {
	ResetCache()
	cfg := tinyConfig(301)
	ok, err := grid(cfg, []string{"stream", "gups"}, []policy.Spec{policy.Norm()})
	if err != nil {
		t.Fatal(err)
	}
	// A workload without a spec has no memo key: it fails fast.
	cells := []Cell{ok[0], {Cfg: cfg, Spec: policy.Norm(), Workload: trace.Workload{Name: "no-spec"}}, ok[1]}
	var r recorder
	_, err = RunCells(context.Background(), cells, r.hooks(Observation{}))
	if err == nil {
		t.Fatal("sweep with an invalid workload succeeded")
	}
	if r.plans != 1 || len(r.cells) != len(cells) {
		t.Fatalf("planned %d batches of %d cells, want one of %d", r.plans, len(r.cells), len(cells))
	}
	if r.done != len(cells) {
		t.Fatalf("Done fired %d times, want %d (every attempt, failures included)", r.done, len(cells))
	}
}

// TestBudgetBoundsConcurrentSims is the scheduler acceptance check at
// the harness level: with budget B, hammering Run from many
// goroutines never executes more than B simulations at once. Run with
// -race in CI.
func TestBudgetBoundsConcurrentSims(t *testing.T) {
	ResetCache()
	old := sched.Default().Stats().Budget
	const budget = 2
	sched.Default().SetBudget(budget)
	defer sched.Default().SetBudget(old)

	workloads := []string{"stream", "gups", "mcf", "lbm", "milc", "hmmer"}
	var wg sync.WaitGroup
	for i, w := range workloads {
		w := w
		cfg := tinyConfig(uint64(400 + i)) // distinct keys: no memo reuse
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := runPlain(context.Background(), cfg, policy.Norm(), w); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	st := CacheSnapshot()
	if st.Misses != uint64(len(workloads)) {
		t.Fatalf("misses = %d, want %d distinct simulations", st.Misses, len(workloads))
	}
	if st.PeakRunning > budget {
		t.Fatalf("peak concurrent simulations = %d, exceeds budget %d", st.PeakRunning, budget)
	}
	if st.PeakRunning == 0 {
		t.Fatal("no simulation ever held a scheduler slot")
	}
}
