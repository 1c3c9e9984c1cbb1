package engine_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/engine"
	"mellow/internal/policy"
	"mellow/internal/trace"
)

func goldenConfig() config.Config {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 300_000
	cfg.Run.DetailedInstructions = 1_000_000
	cfg.Run.Seed = 7
	return cfg
}

func newSystem(t *testing.T, workload, pol string) *core.System {
	t.Helper()
	spec, err := policy.Parse(pol)
	if err != nil {
		t.Fatalf("parse policy %q: %v", pol, err)
	}
	w, err := trace.ByName(workload)
	if err != nil {
		t.Fatalf("workload %q: %v", workload, err)
	}
	sys, err := core.NewSystem(goldenConfig(), spec, w)
	if err != nil {
		t.Fatalf("new system: %v", err)
	}
	return sys
}

// golden pins results captured from the pre-engine pipeline (warmup
// 300k, detailed 1M, seed 7). The engine path must reproduce them bit
// for bit, observed or not.
var golden = []struct {
	workload, policy string
	ipc              float64
	instructions     uint64
	totalWrites      uint64
	lifetimeYears    float64
	energyPJ         float64
	llcMisses        uint64
	reads            uint64
}{
	{"stream", "Norm", 1.1591222613409495, 1000001, 0, math.Inf(1), 19057844, 5360, 12503},
	{"gups", "BE-Mellow+SC+WQ", 0.89048032896951257, 1000029, 3200, 19.988010492670579, 17045515.670333397, 8922, 8922},
	{"GemsFDTD", "BE-Mellow+SC", 0.79075332093969208, 1000008, 1047, 63.173977070969123, 28931582.368133351, 9007, 17558},
}

func checkGolden(t *testing.T, label string, g struct {
	workload, policy string
	ipc              float64
	instructions     uint64
	totalWrites      uint64
	lifetimeYears    float64
	energyPJ         float64
	llcMisses        uint64
	reads            uint64
}, r core.Result) {
	t.Helper()
	if r.IPC != g.ipc {
		t.Errorf("%s %s/%s: IPC = %v, golden %v", label, g.workload, g.policy, r.IPC, g.ipc)
	}
	if r.Instructions != g.instructions {
		t.Errorf("%s %s/%s: Instructions = %d, golden %d", label, g.workload, g.policy, r.Instructions, g.instructions)
	}
	if w := r.Mem.TotalWrites(); w != g.totalWrites {
		t.Errorf("%s %s/%s: TotalWrites = %d, golden %d", label, g.workload, g.policy, w, g.totalWrites)
	}
	if r.Mem.LifetimeYears != g.lifetimeYears {
		t.Errorf("%s %s/%s: LifetimeYears = %v, golden %v", label, g.workload, g.policy, r.Mem.LifetimeYears, g.lifetimeYears)
	}
	if r.Mem.EnergyPJ != g.energyPJ {
		t.Errorf("%s %s/%s: EnergyPJ = %v, golden %v", label, g.workload, g.policy, r.Mem.EnergyPJ, g.energyPJ)
	}
	if r.Cache.LLCMisses != g.llcMisses {
		t.Errorf("%s %s/%s: LLCMisses = %d, golden %d", label, g.workload, g.policy, r.Cache.LLCMisses, g.llcMisses)
	}
	if r.Mem.Reads != g.reads {
		t.Errorf("%s %s/%s: Reads = %d, golden %d", label, g.workload, g.policy, r.Mem.Reads, g.reads)
	}
}

// TestGoldenUnobserved pins the engine's no-probe path to the captured
// pre-refactor output.
func TestGoldenUnobserved(t *testing.T) {
	for _, g := range golden {
		r, err := newSystem(t, g.workload, g.policy).RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s/%s: %v", g.workload, g.policy, err)
		}
		checkGolden(t, "unobserved", g, r)
	}
}

// TestGoldenObservedBitIdentical runs the same systems with the full
// observer stack attached (epoch probe, series, live OnEpoch feed) and
// requires results bit-identical to both the golden values
// and an unobserved twin run.
func TestGoldenObservedBitIdentical(t *testing.T) {
	for _, g := range golden {
		plain, err := newSystem(t, g.workload, g.policy).RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s/%s plain: %v", g.workload, g.policy, err)
		}
		var epochs int
		observed, series, err := newSystem(t, g.workload, g.policy).RunObserved(
			context.Background(), engine.Options{
				Epoch:   engine.DefaultEpoch,
				OnEpoch: func(engine.EpochSample) { epochs++ },
			})
		if err != nil {
			t.Fatalf("%s/%s observed: %v", g.workload, g.policy, err)
		}
		checkGolden(t, "observed", g, observed)
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("%s/%s: observed result differs from unobserved run", g.workload, g.policy)
		}
		if len(series) == 0 || epochs != len(series) {
			t.Errorf("%s/%s: %d samples collected, %d OnEpoch calls", g.workload, g.policy, len(series), epochs)
		}
	}
}

// TestSeriesDeterministic requires two identical observed runs to emit
// identical sample series.
func TestSeriesDeterministic(t *testing.T) {
	run := func() []engine.EpochSample {
		_, series, err := newSystem(t, "gups", "BE-Mellow+SC+WQ").RunObserved(
			context.Background(), engine.Options{Epoch: engine.DefaultEpoch})
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("series differ between identical runs: %d vs %d samples", len(a), len(b))
	}
}

// TestOnEpochSamplesMatchSeries pins the streaming-determinism
// contract at its root: the samples delivered live through OnEpoch are,
// in order and value, exactly the series the run returns. mellowd's SSE
// feed relays OnEpoch verbatim, so this equality is what makes a
// streamed job byte-identical to its embedded result series.
func TestOnEpochSamplesMatchSeries(t *testing.T) {
	var live []engine.EpochSample
	_, series, err := newSystem(t, "stream", "BE-Mellow+SC").RunObserved(
		context.Background(), engine.Options{
			Epoch:   engine.DefaultEpoch,
			OnEpoch: func(s engine.EpochSample) { live = append(live, s) },
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("observed run produced no samples")
	}
	if !reflect.DeepEqual(live, series) {
		t.Fatalf("live OnEpoch samples differ from returned series: %d vs %d", len(live), len(series))
	}
}

// TestSeriesContract checks the epoch determinism contract on a real
// run: consecutive indexes, strictly increasing end ticks, adjacent
// intervals, known phases, and monotone progress reaching 1.
func TestSeriesContract(t *testing.T) {
	_, series, err := newSystem(t, "GemsFDTD", "BE-Mellow+SC").RunObserved(
		context.Background(), engine.Options{Epoch: engine.DefaultEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 2 {
		t.Fatalf("want several epochs, got %d", len(series))
	}
	prevProgress := 0.0
	for i, s := range series {
		if s.Epoch != i {
			t.Fatalf("sample %d has epoch index %d", i, s.Epoch)
		}
		if s.End <= s.Start {
			t.Fatalf("epoch %d: end %d not after start %d", i, s.End, s.Start)
		}
		if i > 0 {
			if s.Start != series[i-1].End {
				t.Fatalf("epoch %d starts at %d, previous ended at %d", i, s.Start, series[i-1].End)
			}
			if s.End <= series[i-1].End {
				t.Fatalf("epoch %d end %d not after %d", i, s.End, series[i-1].End)
			}
		}
		switch s.Phase {
		case engine.PhaseWarmup, engine.PhaseDetailed, engine.PhaseDrain:
		default:
			t.Fatalf("epoch %d: unknown phase %q", i, s.Phase)
		}
		if s.Progress < prevProgress {
			t.Fatalf("epoch %d: progress went backwards (%v -> %v)", i, prevProgress, s.Progress)
		}
		prevProgress = s.Progress
	}
	if got := series[len(series)-1].Progress; got != 1 {
		t.Errorf("final sample progress = %v, want 1", got)
	}
}

// TestSeriesJSONRoundTrip checks the codec reproduces a real series and
// enforces its validation rules.
func TestSeriesJSONRoundTrip(t *testing.T) {
	_, series, err := newSystem(t, "gups", "Norm").RunObserved(
		context.Background(), engine.Options{Epoch: engine.DefaultEpoch})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.WriteSeries(&buf, series); err != nil {
		t.Fatal(err)
	}
	got, err := engine.ReadSeries(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(series, got) {
		t.Fatal("series does not survive a JSON round trip")
	}

	bad := append([]engine.EpochSample(nil), series...)
	bad[1].Epoch = 7
	buf.Reset()
	if err := engine.WriteSeries(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.ReadSeries(&buf); err == nil || !strings.Contains(err.Error(), "epoch index") {
		t.Fatalf("want epoch-index validation error, got %v", err)
	}

	bad = append([]engine.EpochSample(nil), series...)
	bad[1].End = bad[0].End
	buf.Reset()
	if err := engine.WriteSeries(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.ReadSeries(&buf); err == nil || !strings.Contains(err.Error(), "not after") {
		t.Fatalf("want end-tick validation error, got %v", err)
	}
}

// TestCancellation checks the engine aborts with ctx's error.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := newSystem(t, "gups", "Norm").RunObserved(ctx, engine.Options{Epoch: engine.DefaultEpoch})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExplicitEpochPeriod checks a custom epoch controls sample density.
func TestExplicitEpochPeriod(t *testing.T) {
	_, coarse, err := newSystem(t, "gups", "Norm").RunObserved(
		context.Background(), engine.Options{Epoch: engine.DefaultEpoch * 4})
	if err != nil {
		t.Fatal(err)
	}
	_, fine, err := newSystem(t, "gups", "Norm").RunObserved(
		context.Background(), engine.Options{Epoch: engine.DefaultEpoch / 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(fine) <= len(coarse) {
		t.Fatalf("fine epoch produced %d samples, coarse %d", len(fine), len(coarse))
	}
}
