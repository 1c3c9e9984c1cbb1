package experiments

import (
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"mellow/internal/policy"
	"mellow/internal/sched"
	"mellow/internal/trace"
)

// TestMixCellRules: a one-core mix simulates something else than a
// single-workload run of the same workload, so the two never share a
// memo entry; and a mix is observed like any other cell, delivering a
// series, metrics and a timeline named by its label without changing
// its result.
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
	gups, err := trace.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	c := Cell{Cfg: cfg, Spec: spec, Mix: []trace.Workload{w, gups}}
	plain, err := Run(context.Background(), c, Observation{})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(context.Background(), c, Observation{Epoch: 1000, Metrics: true, Trace: true})
	if err != nil {
		t.Fatalf("observed mix: %v", err)
	}
	if !reflect.DeepEqual(observed.Mix, plain.Mix) {
		t.Errorf("observing the mix changed its result:\n got %+v\nwant %+v", observed.Mix, plain.Mix)
	}
	if len(observed.Series) == 0 || observed.Metrics == nil || observed.Trace == nil {
		t.Fatalf("observed mix delivered %d samples, metrics %v, trace %v", len(observed.Series),
			observed.Metrics != nil, observed.Trace != nil)
	}
	if got := observed.Trace.Workload; got != "stream+gups" || c.Label() != got {
		t.Errorf("timeline labelled %q, cell %q, want stream+gups", got, c.Label())
	}
}

// TestExt6Memoises: ext6's mixes go through the memo, so a second run in
// the same process simulates nothing.
func TestExt6Memoises(t *testing.T) {
	ResetCache()
	ext6, err := ByID("ext6")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Cfg: tinyConfig(702), Out: io.Discard}
	if _, _, err := runExperiment(context.Background(), ext6, o, Hooks{}); err != nil {
		t.Fatal(err)
	}
	first := CacheSnapshot().Misses
	if first == 0 {
		t.Fatal("ext6 simulated nothing")
	}
	if _, _, err := runExperiment(context.Background(), ext6, o, Hooks{}); err != nil {
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
	ext6, err := ByID("ext6")
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	o := Options{Cfg: tinyConfig(704), Out: io.Discard}
	cells, _, err := runExperiment(ctx, ext6, o, observe(Observation{}, &done))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := CacheSnapshot(); st.Misses != 0 {
		t.Errorf("a cancelled ext6 started %d mixes", st.Misses)
	}
	total := len(cells)
	if total == 0 || done != total {
		t.Errorf("progress reached %d/%d, want every cell reported", done, total)
	}

	old := sched.Default().Stats().Budget
	sched.Default().SetBudget(2)
	defer sched.Default().SetBudget(old)
	before := sched.Default().Stats().InUse
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	o.Cfg.Run.DetailedInstructions = 1_000_000
	if _, _, err := runExperiment(ctx, ext6, o, Hooks{Done: func(int, Instrumented, error) { cancel() }}); !errors.Is(err, context.Canceled) {
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
