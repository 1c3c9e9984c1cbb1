package core

import (
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/engine"
	"mellow/internal/policy"
	"mellow/internal/trace"
)

// shortCfg is a run long enough for the profiler to rotate and eager
// write-backs to issue, short enough to run every workload three times.
func shortCfg() config.Config {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 50_000
	cfg.Run.DetailedInstructions = 250_000
	return cfg
}

// resultBytes runs one single-core simulation observed at the default
// epoch, releases its system and encodes its result and series. Under a
// Wear Quota or eager policy the kernel is released with its daemon
// timers still scheduled, which the next system's kernel must not see.
func resultBytes(t *testing.T, cfg config.Config, spec policy.Spec, w trace.Workload) ([]byte, Result) {
	t.Helper()
	sys, err := NewSystem(cfg, spec, w)
	if err != nil {
		t.Fatal(err)
	}
	r, series, err := sys.RunObserved(context.Background(), engine.Options{Epoch: engine.DefaultEpoch / 10})
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", w.Name, spec.Name, err)
	}
	if (spec.WearQuota || spec.Eager) && sys.Kernel.Pending() == sys.Kernel.PendingWork() {
		t.Errorf("%s under %s: no daemon timer pending at release", w.Name, spec.Name)
	}
	sys.Release()
	b, err := json.Marshal(struct {
		R Result
		S []engine.EpochSample
	}{r, series})
	if err != nil {
		t.Fatal(err)
	}
	return b, r
}

// emptyPools drops every pooled cache array: a sync.Pool keeps a value
// through at most one collection, so two leave the next run on fresh
// allocations.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// TestRecycledRunsMatchFresh runs each case on fresh arrays, runs a
// different workload, then runs the case again on the cache arrays,
// kernel and request chunks that run released, and wants the same
// bytes. It covers every builtin workload under BE-Mellow+SC+WQ, whose
// quota and eager-pump timers are still scheduled at release, the decay
// predictor (which reads the recency clocks) and a two-core mix.
func TestRecycledRunsMatchFresh(t *testing.T) {
	ws := trace.All()
	spec := policy.BEMellow().WithSC().WithWQ()
	decay := shortCfg()
	decay.Caches.EagerPredictor = cache.PredictorDecay
	decay.Caches.DecayAccesses = 2048
	type tc struct {
		name string
		cfg  config.Config
		w, y trace.Workload
	}
	var cases []tc
	for i, w := range ws {
		cases = append(cases, tc{w.Name, shortCfg(), w, ws[(i+1)%len(ws)]})
	}
	lbmMcf := resolveAll(t, "lbm", "mcf")
	cases = append(cases, tc{"decay/lbm", decay, lbmMcf[0], lbmMcf[1]})
	var eager uint64
	for _, c := range cases {
		emptyPools()
		want, r := resultBytes(t, c.cfg, spec, c.w)
		resultBytes(t, c.cfg, spec, c.y)
		got, _ := resultBytes(t, c.cfg, spec, c.w)
		if string(got) != string(want) {
			t.Errorf("%s: recycled run differs from the fresh one:\n fresh    %s\n recycled %s", c.name, want, got)
		}
		if c.name == "decay/lbm" && r.Cache.EagerIssued == 0 {
			t.Errorf("decay/lbm issued no eager write-backs, so the decay predictor went untested")
		}
		eager += r.Cache.EagerIssued
	}
	if eager == 0 {
		t.Error("no case issued an eager write-back")
	}

	t.Run("mix", func(t *testing.T) {
		mix := func(names ...string) []byte {
			m, _, err := RunMix(context.Background(), shortCfg(), spec, resolveAll(t, names...), engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		emptyPools()
		want := mix("lbm", "mcf")
		mix("stream", "gups")
		if got := mix("lbm", "mcf"); string(got) != string(want) {
			t.Errorf("recycled mix differs from the fresh one:\n fresh    %s\n recycled %s", want, got)
		}
	})
}

// TestConcurrentRecycledRuns runs short simulations on eight goroutines
// at once, all drawing on and returning to the same pools, and wants
// each result equal to the same run made alone.
func TestConcurrentRecycledRuns(t *testing.T) {
	cfg := shortRunCfg()
	cfg.Run.DetailedInstructions = 50_000
	spec := policy.BEMellow().WithSC().WithWQ()
	ws := trace.All()
	want := make([][]byte, len(ws))
	for i, w := range ws {
		want[i], _ = resultBytes(t, cfg, spec, w)
	}
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds*len(ws); k++ {
				i := (g + k) % len(ws)
				if got, _ := resultBytes(t, cfg, spec, ws[i]); string(got) != string(want[i]) {
					t.Errorf("goroutine %d: %s differs from its lone run", g, ws[i].Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
