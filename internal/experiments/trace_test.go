package experiments

import (
	"context"
	"reflect"
	"testing"

	"mellow/internal/policy"
	"mellow/internal/xtrace"
)

// TestTracedBitIdentical pins the trace-determinism contract at the
// memoised layer: a run with Trace set yields a result byte-identical
// to the plain Run result for the same (config, policy,
// workload), while also producing a finalized timeline.
func TestTracedBitIdentical(t *testing.T) {
	ResetCache()
	cfg := tinyConfig(11)
	spec, err := policy.Parse("BE-Mellow+SC+WQ")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runPlain(context.Background(), cfg, spec, "gups")
	if err != nil {
		t.Fatal(err)
	}
	ins, err := runNamed(context.Background(), cfg, spec, "gups", Observation{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, ins.Result) {
		t.Error("traced result differs from untraced run")
	}
	if ins.Trace == nil || len(ins.Trace.Events) == 0 {
		t.Fatalf("traced run produced no timeline: %+v", ins.Trace)
	}
	if ins.Trace.Workload != "gups" || ins.Trace.Policy != spec.Name || ins.Trace.Banks != cfg.Memory.Banks() {
		t.Errorf("timeline labels = %q/%q/%d banks", ins.Trace.Workload, ins.Trace.Policy, ins.Trace.Banks)
	}
	// Trace and no-trace runs use distinct memo keys: the traced run is
	// a second simulation, not a hit that lacks a timeline.
	if st := CacheSnapshot(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (trace flag must enter the key)", st.Misses)
	}

	// An identical traced run is a memo hit sharing the same timeline.
	again, err := runNamed(context.Background(), cfg, spec, "gups", Observation{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if again.Trace != ins.Trace {
		t.Error("memo hit rebuilt the timeline instead of sharing it")
	}
	if st := CacheSnapshot(); st.Misses != 2 {
		t.Errorf("misses after repeat = %d, want still 2", st.Misses)
	}
	ResetCache()
}

// TestTracedCancellationDiscards verifies the failure path retires the
// recorder: a cancelled traced run must not leak into the active count.
func TestTracedCancellationDiscards(t *testing.T) {
	ResetCache()
	spec, err := policy.Parse("Norm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(5)
	cfg.Run.DetailedInstructions = 50_000_000 // would take seconds uncancelled
	base := xtrace.ActiveCount()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runNamed(ctx, cfg, spec, "stream", Observation{Trace: true}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := xtrace.ActiveCount(); got != base {
		t.Errorf("active recorders = %d after cancelled run, want %d", got, base)
	}
	ResetCache()
}
