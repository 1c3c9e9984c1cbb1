package experiments

import (
	"context"
	"errors"
	"io"
	"testing"

	"mellow/internal/policy"
	"mellow/internal/sched"
	"mellow/internal/trace"
)

// TestMixCellRules: a one-core mix simulates something else than a
// single-workload run of the same workload, so the two never share a
// memo entry; and a mix, which has no epoch series, metrics or timeline
// to collect, refuses an observation that asks for one.
func TestMixCellRules(t *testing.T) {
	w, err := trace.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	cfg, spec := tinyConfig(701), policy.Norm()
	single, err := keyFor(Cell{Cfg: cfg, Spec: spec, Workload: w}, Observation{})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := keyFor(Cell{Cfg: cfg, Spec: spec, Mix: []trace.Workload{w}}, Observation{})
	if err != nil {
		t.Fatal(err)
	}
	if single == mix {
		t.Fatal("a one-core mix shares the single-workload memo key")
	}
	if _, err := Run(context.Background(), Cell{Cfg: cfg, Spec: spec, Mix: []trace.Workload{w}},
		Observation{Epoch: 1000}); err == nil {
		t.Error("an observed mix was accepted")
	}
}

// TestExt6Memoises: ext6's mixes go through the memo, so a second run in
// the same process simulates nothing.
func TestExt6Memoises(t *testing.T) {
	ResetCache()
	o := Options{Cfg: tinyConfig(702), Out: io.Discard}
	if err := runExt6(o); err != nil {
		t.Fatal(err)
	}
	first := CacheSnapshot().Misses
	if first == 0 {
		t.Fatal("ext6 simulated nothing")
	}
	if err := runExt6(o); err != nil {
		t.Fatal(err)
	}
	if st := CacheSnapshot(); st.Misses != first {
		t.Errorf("second ext6 run added %d memo misses, want 0", st.Misses-first)
	}
}

// TestMixContainsPanic: a mix whose workload panics fails with the
// contained-panic error, leaves no flight behind and gives back every
// one of the len(mix) scheduler slots it held.
func TestMixContainsPanic(t *testing.T) {
	ResetCache()
	old := sched.Default().Stats().Budget
	sched.Default().SetBudget(4)
	defer sched.Default().SetBudget(old)
	before := sched.Default().Stats().InUse

	var held int64
	stream, err := trace.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	boom := hookedWorkload(t, "gups", func() {
		held = sched.Default().Stats().InUse - before
		panic("generator exploded")
	})
	mix := []trace.Workload{stream, boom}
	_, err = RunCells(context.Background(), []Cell{{Cfg: tinyConfig(703), Spec: policy.Norm(), Mix: mix}}, Hooks{})
	if err == nil || err.Error() != "experiments: simulation panicked: generator exploded" {
		t.Fatalf("err = %v, want the contained panic", err)
	}
	if held != int64(len(mix)) {
		t.Errorf("the mix held %d scheduler slots, want %d", held, len(mix))
	}
	st := CacheSnapshot()
	if st.Entries != 0 || st.InFlight != 0 || st.Running != 0 || st.Panics != 1 {
		t.Errorf("after the panic: entries=%d inflight=%d running=%d panics=%d, want 0/0/0/1",
			st.Entries, st.InFlight, st.Running, st.Panics)
	}
	if inUse := sched.Default().Stats().InUse; inUse != before {
		t.Errorf("scheduler slots in use = %d, want %d", inUse, before)
	}
}

// TestExt6Cancelled: a cancelled ext6 starts no mix, yet still reports
// every cell to Done; cancelled mid-run, it returns with no flight left
// running and fewer mixes memoised than it declares.
func TestExt6Cancelled(t *testing.T) {
	ResetCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var r recorder
	o := Options{Ctx: ctx, Cfg: tinyConfig(704), Out: io.Discard, Hooks: r.hooks(Observation{})}
	if err := runExt6(o); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := CacheSnapshot(); st.Misses != 0 {
		t.Errorf("a cancelled ext6 started %d mixes", st.Misses)
	}
	total := len(r.cells)
	if total == 0 || r.done != total {
		t.Errorf("progress reached %d/%d, want every cell reported", r.done, total)
	}

	old := sched.Default().Stats().Budget
	sched.Default().SetBudget(2)
	defer sched.Default().SetBudget(old)
	before := sched.Default().Stats().InUse
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	o.Ctx = ctx
	o.Cfg.Run.DetailedInstructions = 1_000_000
	o.Hooks = Hooks{Done: func(int, Instrumented, error) { cancel() }}
	if err := runExt6(o); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := CacheSnapshot()
	if st.Entries >= total || st.InFlight != 0 || st.Running != 0 {
		t.Errorf("after cancelling: entries=%d (of %d) inflight=%d running=%d, want fewer/0/0",
			st.Entries, total, st.InFlight, st.Running)
	}
	if inUse := sched.Default().Stats().InUse; inUse != before {
		t.Errorf("scheduler slots in use = %d, want %d", inUse, before)
	}
}
