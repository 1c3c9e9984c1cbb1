package server

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"mellow/internal/experiments"
	"mellow/internal/sched"
)

// TestNormalizeDedup: duplicate operands collapse and both lists get a
// canonical order, so spellings of the same work share one content
// address (and one result-cache entry) and the progress total counts
// each simulation once.
func TestNormalizeDedup(t *testing.T) {
	base := tinyBase(3)

	// workload + workloads naming the same benchmark means it once.
	c, k1, err := normalize(JobRequest{
		Kind: KindCompare, Workload: "gups", Workloads: []string{"gups", "stream"},
		Policies: []string{"Norm", "BE-Mellow+SC"},
	}, *base)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"gups", "stream"}; !reflect.DeepEqual(c.Workloads, want) {
		t.Fatalf("workloads = %v, want deduped sorted %v", c.Workloads, want)
	}

	// Same policies, different order and a duplicate: same canonical
	// form, same key.
	c2, k2, err := normalize(JobRequest{
		Kind: KindCompare, Workloads: []string{"stream", "gups", "gups"},
		Policies: []string{"BE-Mellow+SC", "Norm", "Norm"},
	}, *base)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"BE-Mellow+SC", "Norm"}; !reflect.DeepEqual(c2.Policies, want) {
		t.Fatalf("policies = %v, want deduped sorted %v", c2.Policies, want)
	}
	if k1 != k2 {
		t.Errorf("equivalent compare jobs hash differently:\n%s\n%s", k1, k2)
	}

	// The policy field merges and dedupes like the workload field.
	c3, k3, err := normalize(JobRequest{
		Kind: KindCompare, Workloads: []string{"gups", "stream"},
		Policy: "Norm", Policies: []string{"BE-Mellow+SC", "Norm"},
	}, *base)
	if err != nil {
		t.Fatal(err)
	}
	if len(c3.Policies) != 2 || k3 != k1 {
		t.Errorf("policy+policies merge: %v (key match %v)", c3.Policies, k3 == k1)
	}
}

// TestIntervalValidationHTTP: out-of-bounds interval_ns is rejected at
// admission with 400 — not discovered as an OOM mid-simulation.
func TestIntervalValidationHTTP(t *testing.T) {
	experiments.ResetCache()
	_, ts := newTestServer(t, Config{Workers: 1, BaseConfig: tinyBase(19)})

	for _, bad := range []string{
		`{"kind":"sim","workload":"stream","policy":"Norm","interval_ns":1}`,
		`{"kind":"sim","workload":"stream","policy":"Norm","interval_ns":999}`,
		// One past MaxIntervalNS: the ns→tick conversion would overflow.
		`{"kind":"sim","workload":"stream","policy":"Norm","interval_ns":9223372036854775808}`,
	} {
		if _, code := postJob(t, ts, bad); code != http.StatusBadRequest {
			t.Errorf("body %s: code = %d, want 400", bad, code)
		}
	}

	// The floor itself is accepted and the job runs to completion.
	st, code := postJob(t, ts, `{"kind":"sim","workload":"stream","policy":"Norm","interval_ns":2000}`)
	if code != http.StatusAccepted {
		t.Fatalf("valid interval rejected with %d", code)
	}
	if fin := waitDone(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
}

// TestMixedLoadRespectsBudget is the oversubscription acceptance check
// (run under -race in CI): with SimBudget B, a mix of sim, compare and
// experiment jobs running on more than B workers never has more than B
// simulations executing at once.
func TestMixedLoadRespectsBudget(t *testing.T) {
	experiments.ResetCache()
	const budget = 2
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 16, SimBudget: budget, BaseConfig: tinyBase(101)})

	bodies := []string{
		`{"kind":"sim","workload":"stream","policy":"BE-Mellow+SC"}`,
		`{"kind":"compare","workload":"gups","policies":["Norm","BE-Mellow+SC"]}`,
		`{"kind":"experiment","experiment":"fig3","workloads":["lbm","mcf"]}`,
	}
	var ids []string
	for _, b := range bodies {
		st, code := postJob(t, ts, b)
		if code != http.StatusAccepted {
			t.Fatalf("body %s: code %d", b, code)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if fin := waitDone(t, ts, id); fin.State != StateDone {
			t.Fatalf("job %s: state = %s (%s)", id, fin.State, fin.Error)
		}
	}

	cs := experiments.CacheSnapshot()
	if cs.Misses <= budget {
		t.Fatalf("only %d simulations executed; the mix should exceed the budget %d", cs.Misses, budget)
	}
	if cs.PeakRunning > budget {
		t.Fatalf("peak concurrent simulations = %d, exceeds budget %d", cs.PeakRunning, budget)
	}
}

// TestWideJobCannotStarveSmall pins the scheduler's FIFO guarantee end
// to end: a small sim job parked behind one wide experiment job is
// granted before a second wide job submitted after it — a stream of
// wide work cannot push the small job back indefinitely.
func TestWideJobCannotStarveSmall(t *testing.T) {
	experiments.ResetCache()
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 16, SimBudget: 1, BaseConfig: tinyBase(103)})

	// Registered acquires (granted + parked) observed so far; every
	// memo-miss simulation registers exactly one.
	registered := func() uint64 {
		st := sched.Default().Stats()
		return st.Acquires + uint64(st.Waiters)
	}
	waitRegistered := func(n uint64) {
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			if registered() >= n {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("scheduler never saw %d registered acquires (have %d)", n, registered())
	}
	r0 := registered()

	// Wide job A: 4 simulations, all queued at once against budget 1.
	wideA, code := postJob(t, ts, `{"kind":"experiment","experiment":"fig3","workloads":["lbm","mcf","milc","gups"]}`)
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	waitRegistered(r0 + 4)

	// Small job parks behind A's queued work...
	small, code := postJob(t, ts, `{"kind":"sim","workload":"stream","policy":"Norm"}`)
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	waitRegistered(r0 + 5)

	// ...and wide job B arrives after it (distinct seed: no memo reuse).
	wideB, code := postJob(t, ts, `{"kind":"experiment","experiment":"fig3","workloads":["lbm","mcf","milc","gups"],"seed":104}`)
	if code != http.StatusAccepted {
		t.Fatal(code)
	}

	finSmall := waitDone(t, ts, small.ID)
	if finSmall.State != StateDone {
		t.Fatalf("small job: %s (%s)", finSmall.State, finSmall.Error)
	}
	finB := waitDone(t, ts, wideB.ID)
	if finB.State != StateDone {
		t.Fatalf("wide job B: %s (%s)", finB.State, finB.Error)
	}
	waitDone(t, ts, wideA.ID)

	// FIFO: the small job's one simulation was granted before any of
	// B's four, so it must finish first.
	if finSmall.FinishedAt.After(*finB.FinishedAt) {
		t.Errorf("small job finished at %v, after the later wide job's %v — starved past FIFO order",
			finSmall.FinishedAt, finB.FinishedAt)
	}
}

// TestFailedJobProgressCoherent: a job whose simulations fail still
// accounts for every attempted simulation, so its progress fraction
// ends at a defined value (1: all attempts retired) instead of
// freezing wherever the first error happened to land.
func TestFailedJobProgressCoherent(t *testing.T) {
	experiments.ResetCache()
	base := tinyBase(47)
	canon, key, err := normalize(JobRequest{
		Kind: KindCompare, Workloads: []string{"gups", "stream"},
		Policies: []string{"BE-Mellow+SC", "Norm"},
	}, *base)
	if err != nil {
		t.Fatal(err)
	}
	js := &jobState{id: "t-fail", key: key, run: &jobRun{canon: canon}, done: make(chan struct{}),
		epochs: newEpochLog(0, nil)}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every simulation fails at admission to the scheduler
	if _, err := runJob(ctx, js); err == nil {
		t.Fatal("cancelled job succeeded")
	}
	if got := js.epochs.fraction(); got != 1 {
		t.Fatalf("failed job fraction = %v, want 1 (all %d attempts retired)",
			got, len(js.epochs.cells))
	}
}

// TestParallelMatrixOrdering: the fan-out must preserve the sequential
// (workload-major, policy-minor) result order however cells finish.
func TestParallelMatrixOrdering(t *testing.T) {
	experiments.ResetCache()
	_, ts := newTestServer(t, Config{Workers: 2, SimBudget: 4, BaseConfig: tinyBase(53)})
	st, code := postJob(t, ts,
		`{"kind":"compare","workloads":["gups","stream"],"policies":["Norm","BE-Mellow+SC"]}`)
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	fin := waitDone(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
	var got []string
	for _, r := range fin.Result.Results {
		got = append(got, fmt.Sprintf("%s/%s", r.Workload, r.Policy))
	}
	want := []string{"gups/BE-Mellow+SC", "gups/Norm", "stream/BE-Mellow+SC", "stream/Norm"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result order = %v, want %v", got, want)
	}
}
