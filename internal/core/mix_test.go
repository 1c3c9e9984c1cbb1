package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"mellow/internal/policy"
	"mellow/internal/trace"
)

func mustMix(t *testing.T, spec policy.Spec, workloads ...string) MixResult {
	t.Helper()
	cfg := quickCfg()
	cfg.Run.WarmupInstructions = 500_000
	cfg.Run.DetailedInstructions = 2_000_000
	m, err := RunMix(context.Background(), cfg, spec, resolveAll(t, workloads...))
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
		// The warmup phase overshoots by at most one op, so the measured
		// window can be a few instructions short of the nominal target.
		if c.Instructions < 1_990_000 {
			t.Errorf("%s measured %d instructions", c.Workload, c.Instructions)
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
	if _, err := RunMix(context.Background(), cfg, policy.Norm(), nil); err == nil {
		t.Error("empty mix accepted")
	}
	bad := cfg
	bad.CPU.IssueWidth = 0
	if _, err := RunMix(context.Background(), bad, policy.Norm(), resolveAll(t, "stream")); err == nil {
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
	_, err := RunMix(ctx, cfg, policy.BEMellow().WithSC(), resolveAll(t, "lbm", "mcf"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled mix returned after %v", d)
	}
}
