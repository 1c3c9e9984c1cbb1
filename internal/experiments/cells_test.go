package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mellow/internal/policy"
	"mellow/internal/sched"
	"mellow/internal/trace"
)

// hookedWorkload is the builtin workload name with onNew called every
// time a generator is built — inside the simulation, under its
// scheduler slot. It shares the builtin's memo key space.
func hookedWorkload(t *testing.T, name string, onNew func()) trace.Workload {
	t.Helper()
	w, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	inner := w.New
	w.New = func(seed uint64) trace.Generator {
		onNew()
		return inner(seed)
	}
	return w
}

// noSpec is a cell that fails fast: a workload without a spec has no
// memo key.
func noSpec(seed uint64) Cell {
	return Cell{Cfg: tinyConfig(seed), Spec: policy.Norm(), Workload: trace.Workload{Name: "no-spec"}}
}

// doneLog records RunCells' Done calls; the contract serialises them,
// and the mutex lets -race prove nothing else touches the log.
type doneLog struct {
	mu    sync.Mutex
	order []int
	errs  map[int]error
}

func (l *doneLog) done(i int, _ Instrumented, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.errs == nil {
		l.errs = map[int]error{}
	}
	if _, dup := l.errs[i]; dup {
		panic("RunCells reported a cell twice")
	}
	l.order = append(l.order, i)
	l.errs[i] = err
}

// TestRunCellsContract pins the one matrix runner's contract: slot order
// whatever the finish order, the first error returned with its siblings
// cancelled, exactly one completion report per cell, and no cell started
// once the context is done.
func TestRunCellsContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		test func(t *testing.T)
	}{
		{"slot order under reversed finish order", testRunCellsSlotOrder},
		{"first error wins and cancels siblings", testRunCellsFirstError},
		{"no cell starts after cancellation", testRunCellsCancelled},
	} {
		t.Run(tc.name, tc.test)
	}
}

func testRunCellsSlotOrder(t *testing.T) {
	ResetCache()
	cells, err := grid(tinyConfig(601), []string{"gups", "stream"}, []policy.Spec{policy.Norm(), policy.BEMellow().WithSC()})
	if err != nil {
		t.Fatal(err)
	}
	n := len(cells)
	// Cell i may start only once cell i+1 has completed, so the cells
	// finish in exactly reverse slot order.
	finished := make([]chan struct{}, n)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	var log doneLog
	res, err := RunCells(context.Background(), cells, Hooks{
		Start: func(i int) Observation {
			if i+1 < n {
				<-finished[i+1]
			}
			return Observation{}
		},
		Done: func(i int, ins Instrumented, err error) {
			log.done(i, ins, err)
			close(finished[i])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 2, 1, 0}; !reflect.DeepEqual(log.order, want) {
		t.Fatalf("completion order = %v, want %v", log.order, want)
	}
	for i, c := range cells {
		want, err := Run(context.Background(), c.Cfg, c.Spec, c.Workload, Observation{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res[i], want) {
			t.Errorf("slot %d holds %s/%s, want %s/%s", i,
				res[i].Result.Workload, res[i].Result.Policy, c.Workload.Name, c.Spec.Name)
		}
	}
}

func testRunCellsFirstError(t *testing.T) {
	ResetCache()
	running := make(chan struct{})
	var once sync.Once
	long := Cell{Cfg: tinyConfig(602), Spec: policy.Norm(),
		Workload: hookedWorkload(t, "stream", func() { once.Do(func() { close(running) }) })}
	long.Cfg.Run.DetailedInstructions = 200_000_000 // still simulating when a sibling fails
	cells := []Cell{long, noSpec(602), noSpec(603)}
	var log doneLog
	_, err := RunCells(context.Background(), cells, Hooks{
		// The failing cells wait until the long one is simulating, so its
		// cancellation is a sibling abort, not a cell never started.
		Start: func(i int) Observation {
			if i > 0 {
				<-running
			}
			return Observation{}
		},
		Done: log.done,
	})
	if err == nil || !strings.Contains(err.Error(), "no spec") {
		t.Fatalf("err = %v, want the failing cell's error", err)
	}
	if !errors.Is(log.errs[0], context.Canceled) {
		t.Errorf("long sibling ended with %v, want context.Canceled", log.errs[0])
	}
	if len(log.order) != len(cells) {
		t.Errorf("Done fired for cells %v, want all %d", log.order, len(cells))
	}
}

func testRunCellsCancelled(t *testing.T) {
	ResetCache()
	cells, err := grid(tinyConfig(604), []string{"gups", "stream", "mcf"}, []policy.Spec{policy.Norm()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started atomic.Int32
	var log doneLog
	_, err = RunCells(ctx, cells, Hooks{
		Start: func(int) Observation { started.Add(1); return Observation{} },
		Done:  log.done,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 0 {
		t.Errorf("%d cells started after cancellation", n)
	}
	if len(log.order) != len(cells) {
		t.Fatalf("Done fired for cells %v, want all %d", log.order, len(cells))
	}
	for i, err := range log.errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cell %d reported %v, want context.Canceled", i, err)
		}
	}
	if st := CacheSnapshot(); st.Misses != 0 {
		t.Errorf("cancelled matrix simulated %d cells", st.Misses)
	}
}

// TestJoinerSurvivesRunnerCancel: a caller that joined another
// caller's in-flight simulation must not inherit that caller's
// cancellation. The joiner's own context is live, so it retries and
// gets a result.
func TestJoinerSurvivesRunnerCancel(t *testing.T) {
	ResetCache()
	entered := make(chan struct{})
	release := make(chan struct{})
	var builds atomic.Int32
	w := hookedWorkload(t, "stream", func() {
		if builds.Add(1) == 1 { // only the first runner blocks
			close(entered)
			<-release
		}
	})
	cfg, spec := tinyConfig(611), policy.Norm()

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := Run(ctxA, cfg, spec, w, Observation{})
		errA <- err
	}()
	<-entered
	type outcome struct {
		ins Instrumented
		err error
	}
	outB := make(chan outcome, 1)
	go func() {
		ins, err := Run(context.Background(), cfg, spec, w, Observation{})
		outB <- outcome{ins, err}
	}()
	for CacheSnapshot().Hits == 0 { // B has joined A's flight
		time.Sleep(time.Millisecond)
	}
	cancelA()
	close(release)
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("runner A: err = %v, want context.Canceled", err)
	}
	b := <-outB
	if b.err != nil {
		t.Fatalf("joiner B inherited the runner's failure: %v", b.err)
	}
	if b.ins.Result.Instructions == 0 {
		t.Fatal("joiner B got an empty result")
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("generators built = %d, want 2 (A's cancelled run, B's retry)", n)
	}
}

// TestRunContainsPanic: a panicking simulation fails with a stable
// error for its runner and every joiner, is not memoised, and gives
// back its scheduler slot.
func TestRunContainsPanic(t *testing.T) {
	ResetCache()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	w := hookedWorkload(t, "gups", func() {
		once.Do(func() { close(entered); <-release })
		panic("generator exploded")
	})
	cfg, spec := tinyConfig(621), policy.Norm()
	before := sched.Default().Stats().InUse

	errs := make(chan error, 2)
	go func() {
		_, err := Run(context.Background(), cfg, spec, w, Observation{})
		errs <- err
	}()
	<-entered
	go func() {
		_, err := Run(context.Background(), cfg, spec, w, Observation{})
		errs <- err
	}()
	for CacheSnapshot().Hits == 0 { // the second caller has joined
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		err := <-errs
		if err == nil || err.Error() != "experiments: simulation panicked: generator exploded" {
			t.Fatalf("caller %d: err = %v, want the contained panic", i, err)
		}
	}
	st := CacheSnapshot()
	if st.Entries != 0 || st.InFlight != 0 || st.Running != 0 {
		t.Errorf("after the panic: entries=%d inflight=%d running=%d, want 0/0/0",
			st.Entries, st.InFlight, st.Running)
	}
	if inUse := sched.Default().Stats().InUse; inUse != before {
		t.Errorf("scheduler slots in use = %d, want %d", inUse, before)
	}
	// Not memoised: the next caller simulates (and fails) again.
	if _, err := Run(context.Background(), cfg, spec, w, Observation{}); err == nil {
		t.Fatal("a failed simulation was served from the memo")
	}
	if st := CacheSnapshot(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2", st.Misses)
	}
}
