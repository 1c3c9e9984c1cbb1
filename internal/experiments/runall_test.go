package experiments

import (
	"sync"
	"testing"

	"mellow/internal/policy"
	"mellow/internal/sched"
)

// TestRunAllProgressOnError: a failing simulation must still advance
// the progress callback — previously the error path returned before
// OnProgress, so a failed sweep's last reported fraction froze at an
// arbitrary value.
func TestRunAllProgressOnError(t *testing.T) {
	ResetCache()
	cfg := tinyConfig(301)
	spec := policy.Norm()
	jobs := []job{
		{cfg: cfg, spec: spec, workload: "stream"},
		{cfg: cfg, spec: spec, workload: "no-such-workload"}, // fails fast
		{cfg: cfg, spec: spec, workload: "gups"},
	}
	var mu sync.Mutex
	var calls [][2]int
	o := Options{Cfg: cfg, OnProgress: func(done, total int) {
		mu.Lock()
		calls = append(calls, [2]int{done, total})
		mu.Unlock()
	}}
	_, err := runAll(o, jobs)
	if err == nil {
		t.Fatal("sweep with an invalid workload succeeded")
	}
	if len(calls) != len(jobs) {
		t.Fatalf("OnProgress fired %d times, want %d (every attempt, failures included): %v",
			len(calls), len(jobs), calls)
	}
	for i, c := range calls {
		if c[0] != i+1 || c[1] != len(jobs) {
			t.Fatalf("call %d reported %d/%d, want %d/%d", i, c[0], c[1], i+1, len(jobs))
		}
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
			if _, err := runOne(Options{}, cfg, policy.Norm(), w); err != nil {
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
