package engine_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mellow/internal/engine"
	"mellow/internal/xtrace"
)

// TestGoldenTracedBitIdentical attaches an execution-timeline recorder
// (alone, and alongside the full observer stack) and requires results
// bit-identical to both the golden values and an untraced twin run —
// the trace-determinism contract of DESIGN.md §3.4.
func TestGoldenTracedBitIdentical(t *testing.T) {
	for _, g := range golden {
		plain, err := newSystem(t, g.workload, g.policy).RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s/%s plain: %v", g.workload, g.policy, err)
		}

		// Trace-only: the timeline must not enable the epoch probe.
		rec := xtrace.NewRecorder(0)
		traced, series, err := newSystem(t, g.workload, g.policy).RunObserved(
			context.Background(), engine.Options{Timeline: rec})
		if err != nil {
			t.Fatalf("%s/%s traced: %v", g.workload, g.policy, err)
		}
		checkGolden(t, "traced", g, traced)
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s/%s: traced result differs from untraced run", g.workload, g.policy)
		}
		if len(series) != 0 {
			t.Errorf("%s/%s: trace-only run emitted %d epoch samples", g.workload, g.policy, len(series))
		}
		checkTimeline(t, g.workload, g.policy, rec, false, g.totalWrites > 0)

		// Traced + full observer stack: still bit-identical.
		rec2 := xtrace.NewRecorder(0)
		both, series2, err := newSystem(t, g.workload, g.policy).RunObserved(
			context.Background(), engine.Options{
				Epoch:    engine.DefaultEpoch,
				OnEpoch:  func(engine.EpochSample) {},
				Timeline: rec2,
			})
		if err != nil {
			t.Fatalf("%s/%s traced+observed: %v", g.workload, g.policy, err)
		}
		if !reflect.DeepEqual(plain, both) {
			t.Errorf("%s/%s: traced+observed result differs from untraced run", g.workload, g.policy)
		}
		if len(series2) == 0 {
			t.Errorf("%s/%s: traced+observed run emitted no epoch samples", g.workload, g.policy)
		}
		checkTimeline(t, g.workload, g.policy, rec2, true, g.totalWrites > 0)
	}
}

// checkTimeline finalizes rec and asserts the taxonomy the engine and
// controller promise: phase slices always; epoch slices only when the
// probe ran; bank write slices whenever the golden run wrote memory.
func checkTimeline(t *testing.T, workload, policy string, rec *xtrace.Recorder, wantEpochs, wantWrites bool) {
	t.Helper()
	st := rec.Finalize(workload, policy, 16)
	if st == nil {
		t.Fatalf("%s/%s: recorder finalized to nil", workload, policy)
	}
	phases := map[string]bool{}
	epochs, bankEvents, writeEvents := 0, 0, 0
	for _, e := range st.Events {
		switch e.Track {
		case xtrace.TrackPhase:
			phases[e.Name] = true
		case xtrace.TrackEpoch:
			epochs++
		default:
			if e.Track >= xtrace.BankTrack(0) {
				bankEvents++
				if strings.Contains(e.Name, "write") {
					writeEvents++
				}
			}
		}
	}
	for _, ph := range []string{engine.PhaseWarmup, engine.PhaseDetailed, engine.PhaseDrain} {
		if !phases[ph] {
			t.Errorf("%s/%s: no %q phase slice in timeline", workload, policy, ph)
		}
	}
	if wantEpochs && epochs == 0 {
		t.Errorf("%s/%s: observed run recorded no epoch slices", workload, policy)
	}
	if !wantEpochs && epochs != 0 {
		t.Errorf("%s/%s: trace-only run recorded %d epoch slices", workload, policy, epochs)
	}
	if bankEvents == 0 {
		t.Errorf("%s/%s: no per-bank events in timeline", workload, policy)
	}
	if wantWrites && writeEvents == 0 {
		t.Errorf("%s/%s: run wrote memory but timeline has no write slices", workload, policy)
	}
	// Phase and epoch slices are recorded sequentially as simulated time
	// advances, so those two tracks must be in order. Bank tracks are
	// not checked: a cancelled write's slice can be stamped with a
	// bus-deferred start later than its record moment.
	lastPhase, lastEpoch := uint64(0), uint64(0)
	for i, e := range st.Events {
		if e.End < e.Start {
			t.Fatalf("%s/%s: event %d ends before it starts", workload, policy, i)
		}
		switch e.Track {
		case xtrace.TrackPhase:
			if uint64(e.Start) < lastPhase {
				t.Fatalf("%s/%s: phase slice %d out of order", workload, policy, i)
			}
			lastPhase = uint64(e.End)
		case xtrace.TrackEpoch:
			if uint64(e.Start) < lastEpoch {
				t.Fatalf("%s/%s: epoch slice %d out of order", workload, policy, i)
			}
			lastEpoch = uint64(e.End)
		}
	}
}
