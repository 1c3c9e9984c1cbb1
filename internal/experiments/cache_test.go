package experiments

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/policy"
	"mellow/internal/trace"
)

// tinyConfig keeps hammer tests fast: a few tens of thousands of
// instructions simulate in milliseconds.
func tinyConfig(seed uint64) config.Config {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 0
	cfg.Run.DetailedInstructions = 50_000
	cfg.Run.Seed = seed
	return cfg
}

// grid is the workload-major, policy-minor matrix of builtin workloads
// under one configuration.
func grid(cfg config.Config, workloads []string, specs []policy.Spec) ([]Cell, error) {
	cells := make([]Cell, 0, len(workloads)*len(specs))
	for _, name := range workloads {
		w, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, s := range specs {
			cells = append(cells, Cell{Cfg: cfg, Spec: s, Workload: w})
		}
	}
	return cells, nil
}

// runNamed resolves a builtin workload by name and runs it through the
// memo.
func runNamed(ctx context.Context, cfg config.Config, spec policy.Spec, name string, ob Observation) (Instrumented, error) {
	w, err := trace.ByName(name)
	if err != nil {
		return Instrumented{}, err
	}
	return Run(ctx, Cell{Cfg: cfg, Spec: spec, Workload: w}, ob)
}

// runPlain runs a builtin workload unobserved and returns its result.
func runPlain(ctx context.Context, cfg config.Config, spec policy.Spec, name string) (core.Result, error) {
	ins, err := runNamed(ctx, cfg, spec, name, Observation{})
	return ins.Result, err
}

// TestRunConcurrent hammers the memoisation cache from many
// goroutines (run under -race): identical keys must simulate exactly
// once, and every caller must observe the same result.
func TestRunConcurrent(t *testing.T) {
	ResetCache()
	cfg := tinyConfig(99)
	spec, err := policy.Parse("Norm")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	ipcs := make([]float64, goroutines)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := runPlain(context.Background(), cfg, spec, "stream")
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			ipcs[i] = r.IPC
		}()
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if ipcs[i] != ipcs[0] {
			t.Errorf("goroutine %d saw IPC %v, goroutine 0 saw %v", i, ipcs[i], ipcs[0])
		}
	}
	st := CacheSnapshot()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 simulation", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Errorf("hits = %d, want %d", st.Hits, goroutines-1)
	}
	if st.Entries != 1 || st.InFlight != 0 {
		t.Errorf("entries=%d inflight=%d, want 1/0", st.Entries, st.InFlight)
	}
}

// TestRunAllConcurrent drives the matrix runner from several goroutines
// at once, the daemon's usage pattern.
func TestRunAllConcurrent(t *testing.T) {
	ResetCache()
	o := Options{Cfg: tinyConfig(7)}
	cells, err := grid(o.Cfg, []string{"gups"}, policy.EvaluationSet()[:3])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunCells(context.Background(), cells, Hooks{})
			if err != nil {
				t.Error(err)
				return
			}
			if len(res) != len(cells) {
				t.Errorf("got %d results, want %d", len(res), len(cells))
			}
		}()
	}
	wg.Wait()
	if st := CacheSnapshot(); st.Misses != uint64(len(cells)) {
		t.Errorf("misses = %d, want %d distinct simulations", st.Misses, len(cells))
	}
}

// TestCacheEviction verifies the bound: the cache never holds more than
// its cap and reports evictions.
func TestCacheEviction(t *testing.T) {
	ResetCache()
	SetCacheCap(2)
	defer func() { SetCacheCap(DefaultCacheCap); ResetCache() }()
	spec, err := policy.Parse("Norm")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		if _, err := runPlain(context.Background(), tinyConfig(seed), spec, "gups"); err != nil {
			t.Fatal(err)
		}
	}
	st := CacheSnapshot()
	if st.Entries > 2 {
		t.Errorf("entries = %d, want <= cap 2", st.Entries)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
}

// TestRunCancellation checks that a cancelled context aborts a
// simulation promptly with the context's error.
func TestRunCancellation(t *testing.T) {
	ResetCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec, err := policy.Parse("Norm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(3)
	cfg.Run.DetailedInstructions = 50_000_000 // would take seconds uncancelled
	if _, err := runPlain(ctx, cfg, spec, "stream"); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if st := CacheSnapshot(); st.Entries != 0 {
		t.Errorf("cancelled run cached %d entries, want 0", st.Entries)
	}
	ResetCache()
}

// TestCacheEvictionOrder pins oldest-first eviction as the insertion
// ring wraps many times, and after the cap shrinks.
func TestCacheEvictionOrder(t *testing.T) {
	key := func(i int) runKey { return runKey{policy: fmt.Sprint(i)} }
	c := newSimCache(3)
	const inserts = 100 // the ring's buffer is far smaller: it wraps
	for i := 0; i < inserts; i++ {
		c.insert(key(i), cached{})
		for j := i - 4; j <= i; j++ {
			_, held := c.entries[key(j)]
			if want := j >= 0 && j > i-3; held != want {
				t.Fatalf("after insert %d: key %d held = %v, want %v", i, j, held, want)
			}
		}
	}
	if st := c.stats(); st.Evictions != inserts-3 || st.Entries != 3 {
		t.Fatalf("evictions=%d entries=%d, want %d/3", st.Evictions, st.Entries, inserts-3)
	}
	if len(c.order.buf) > 16 {
		t.Errorf("ring grew to %d slots at cap 3", len(c.order.buf))
	}
	// Re-inserting a held key neither reorders nor evicts.
	c.insert(key(inserts-3), cached{})
	c.cap = 2
	c.insert(key(inserts), cached{})
	for _, j := range []int{inserts - 1, inserts} {
		if _, ok := c.entries[key(j)]; !ok {
			t.Errorf("after shrinking to cap 2: newest key %d evicted", j)
		}
	}
	if st := c.stats(); st.Evictions != inserts-1 || st.Entries != 2 {
		t.Fatalf("after shrink: evictions=%d entries=%d, want %d/2", st.Evictions, st.Entries, inserts-1)
	}
}
