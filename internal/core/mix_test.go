package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"mellow/internal/config"
	"mellow/internal/engine"
	"mellow/internal/metrics"
	"mellow/internal/policy"
	"mellow/internal/trace"
	"mellow/internal/xtrace"
)

// maxRecordInstrs bounds one trace record (gap plus access): a core
// retires whole records, so its window ends at the first record boundary
// at or past the configured length.
const maxRecordInstrs = 256

func mustMix(t *testing.T, spec policy.Spec, workloads ...string) MixResult {
	t.Helper()
	cfg := quickCfg()
	cfg.Run.WarmupInstructions = 500_000
	cfg.Run.DetailedInstructions = 2_000_000
	m, _, err := RunMix(context.Background(), cfg, spec, resolveAll(t, workloads...), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// resolveAll looks up builtin workloads by name.
func resolveAll(t *testing.T, names ...string) []trace.Workload {
	t.Helper()
	ws := make([]trace.Workload, len(names))
	for i, name := range names {
		w, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

func TestMixBasics(t *testing.T) {
	m := mustMix(t, policy.Norm(), "stream", "mcf")
	if len(m.Cores) != 2 {
		t.Fatalf("cores = %d, want 2", len(m.Cores))
	}
	for _, c := range m.Cores {
		if c.IPC <= 0 {
			t.Errorf("%s IPC = %v", c.Workload, c.IPC)
		}
		// Each core measures its own window: the configured length,
		// overshot by less than one trace record.
		if c.Instructions < 2_000_000 || c.Instructions-2_000_000 >= maxRecordInstrs {
			t.Errorf("%s measured %d instructions, want [2000000, %d)", c.Workload, c.Instructions, 2_000_000+maxRecordInstrs)
		}
	}
	if m.Mem.TotalWrites() == 0 {
		t.Error("no shared-memory writes")
	}
	if m.WeightedIPC() <= m.Cores[0].IPC {
		t.Error("weighted IPC not a sum")
	}
}

func TestMixErrors(t *testing.T) {
	cfg := quickCfg()
	if _, _, err := RunMix(context.Background(), cfg, policy.Norm(), nil, engine.Options{}); err == nil {
		t.Error("empty mix accepted")
	}
	bad := cfg
	bad.CPU.IssueWidth = 0
	if _, _, err := RunMix(context.Background(), bad, policy.Norm(), resolveAll(t, "stream"), engine.Options{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestMixDeterministic(t *testing.T) {
	a := mustMix(t, policy.BEMellow().WithSC(), "lbm", "gups")
	b := mustMix(t, policy.BEMellow().WithSC(), "lbm", "gups")
	for i := range a.Cores {
		if a.Cores[i].IPC != b.Cores[i].IPC {
			t.Errorf("core %d IPC differs: %v vs %v", i, a.Cores[i].IPC, b.Cores[i].IPC)
		}
	}
	if a.Mem.TotalWrites() != b.Mem.TotalWrites() {
		t.Error("shared memory traffic differs between runs")
	}
}

func TestMixInterferenceSlowsCores(t *testing.T) {
	// Two memory-hungry programs sharing the memory must each run slower
	// than alone.
	solo := mustRun(t, quickCfg(), policy.Norm(), "lbm")
	mix := mustMix(t, policy.Norm(), "lbm", "lbm")
	for _, c := range mix.Cores {
		if c.IPC >= solo.IPC {
			t.Errorf("mixed lbm IPC %v not below solo %v", c.IPC, solo.IPC)
		}
	}
}

func TestMixMellowStillExtendsLifetime(t *testing.T) {
	norm := mustMix(t, policy.Norm(), "GemsFDTD", "milc")
	be := mustMix(t, policy.BEMellow().WithSC(), "GemsFDTD", "milc")
	if be.LifetimeYears() <= norm.LifetimeYears() {
		t.Errorf("BE-Mellow mix lifetime %v did not beat Norm %v",
			be.LifetimeYears(), norm.LifetimeYears())
	}
	if be.Mem.EagerDone == 0 {
		t.Error("no eager writes in the mix")
	}
}

func TestMixDistinctSeedsPerCore(t *testing.T) {
	// Two copies of the same workload must not issue identical address
	// streams (they get per-core seeds).
	m := mustMix(t, policy.Norm(), "gups", "gups")
	a, b := m.Cores[0], m.Cores[1]
	if a.Cache.LLCMisses == b.Cache.LLCMisses && a.IPC == b.IPC {
		t.Error("identical per-core behaviour suggests shared seeds")
	}
}

// TestMixHonoursCancellation times a mix out partway through a run far
// longer than the deadline and requires it to return the context's
// error soon after, rather than only when the mix ends.
func TestMixHonoursCancellation(t *testing.T) {
	cfg := quickCfg()
	cfg.Run.WarmupInstructions = 0
	cfg.Run.DetailedInstructions = 1 << 40
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := RunMix(ctx, cfg, policy.BEMellow().WithSC(), resolveAll(t, "lbm", "mcf"), engine.Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled mix returned after %v", d)
	}
}

// mixBytes encodes a mix result, failing the test on an error.
func mixBytes(t *testing.T, m MixResult, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMixMatchesReference: a mix through the engine gives the bytes of
// refRunMix, the per-step laggard scan, across mixes of two to four
// cores, policies with and without eager writes and Wear Quota, two
// seeds, and a run with no warmup.
func TestMixMatchesReference(t *testing.T) {
	mixes := [][]string{{"lbm", "mcf"}, {"stream", "gups"}, {"GemsFDTD", "milc", "gups"}, {"gups", "gups"}}
	specs := []policy.Spec{policy.Norm(), policy.BEMellow().WithSC(), policy.BEMellow().WithSC().WithWQ()}
	for _, seed := range []uint64{1, 2} {
		cfg := config.Default()
		cfg.Run.Seed = seed
		cfg.Run.WarmupInstructions = 40_000 * (2 - seed) // seed 2 runs without warmup
		cfg.Run.DetailedInstructions = 120_000
		for _, mix := range mixes {
			ws := resolveAll(t, mix...)
			for _, spec := range specs {
				ref, err := refRunMix(context.Background(), cfg, spec, ws)
				want := mixBytes(t, ref, err)
				m, _, err := RunMix(context.Background(), cfg, spec, ws, engine.Options{})
				if got := mixBytes(t, m, err); !bytes.Equal(got, want) {
					t.Errorf("seed %d %v %s: engine mix differs from the reference\n got %s\nwant %s",
						seed, mix, spec.Name, got, want)
				}
			}
		}
	}
}

// TestObservedMixMatchesPlain: observing a mix with an epoch probe, a
// metrics registry and a timeline leaves its result bytes alone, and
// the observers see the whole run: a series that ends at progress 1,
// every core's collectors and a timeline.
func TestObservedMixMatchesPlain(t *testing.T) {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 50_000
	cfg.Run.DetailedInstructions = 200_000
	spec := policy.BEMellow().WithSC().WithWQ()
	ws := resolveAll(t, "lbm", "mcf", "gups")
	plain, _, err := RunMix(context.Background(), cfg, spec, ws, engine.Options{})
	want := mixBytes(t, plain, err)

	reg := metrics.NewRegistry()
	rec := xtrace.NewRecorder(0)
	live := 0
	observed, series, err := RunMix(context.Background(), cfg, spec, ws, engine.Options{
		Epoch: engine.DefaultEpoch / 10, OnEpoch: func(engine.EpochSample) { live++ },
		Metrics: reg, Timeline: rec,
	})
	if got := mixBytes(t, observed, err); !bytes.Equal(got, want) {
		t.Errorf("observed mix differs from the plain one\n got %s\nwant %s", got, want)
	}
	if len(series) < 2 || live != len(series) {
		t.Fatalf("%d samples, %d delivered live", len(series), live)
	}
	var instrs uint64
	for _, s := range series {
		instrs += s.Instructions
	}
	var ran uint64
	for _, c := range observed.Cores {
		ran += c.Instructions
	}
	if last := series[len(series)-1]; last.Progress != 1 || instrs < ran {
		t.Errorf("series ends at progress %v and sums %d instructions, want 1 and at least the %d measured",
			last.Progress, instrs, ran)
	}
	snap := reg.Snapshot()
	for _, f := range snap.Families {
		if f.Name == "sim_cpu_instructions_total" && len(f.Cells) != len(ws) {
			t.Errorf("%s has %d cells, want one per core", f.Name, len(f.Cells))
		}
	}
	if tr := rec.Finalize("lbm+mcf+gups", spec.Name, cfg.Memory.Banks()); tr == nil || len(tr.Events) == 0 {
		t.Error("the timeline recorded nothing")
	}
}

// renderedSeries renders snap in Prometheus text and returns each
// sample line's series, its name and label set, failing on a series
// rendered twice: text exposition allows one sample per series.
func renderedSeries(t *testing.T, snap metrics.Snapshot) []string {
	t.Helper()
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		if seen[series] {
			t.Errorf("series %s rendered twice", series)
		}
		seen[series] = true
		out = append(out, series)
	}
	return out
}

// TestSnapshotSeriesUnique renders a single run's and a mix's metrics
// snapshots and rejects any (name, labels) pair rendered twice. A
// mix's cpu and cache families carry each core's index in a core
// label; a single run's carry none.
func TestSnapshotSeriesUnique(t *testing.T) {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 0
	cfg.Run.DetailedInstructions = 50_000
	spec := policy.BEMellow().WithSC()
	ws := resolveAll(t, "lbm", "mcf")

	single := metrics.NewRegistry()
	if _, _, err := Run(context.Background(), cfg, spec, ws[0], engine.Options{Metrics: single}); err != nil {
		t.Fatal(err)
	}
	for _, series := range renderedSeries(t, single.Snapshot()) {
		if strings.Contains(series, "core=") {
			t.Errorf("single run renders %s: only a mix labels its cores", series)
		}
	}

	mix := metrics.NewRegistry()
	if _, _, err := RunMix(context.Background(), cfg, spec, ws, engine.Options{Metrics: mix}); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(renderedSeries(t, mix.Snapshot()), "\n")
	for _, want := range []string{
		`sim_cpu_instructions_total{core="0"}`, `sim_cpu_instructions_total{core="1"}`,
		`sim_cache_hits_total{core="1",level="l2"}`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("mix snapshot renders no %s", want)
		}
	}
}
