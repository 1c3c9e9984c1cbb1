package experiments

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/engine"
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
	key := func(i int) runKey { return seedKey(t, uint64(i)) }
	c := newSimCache(3)
	const inserts = 100 // the ring's buffer is far smaller: it wraps
	for i := 0; i < inserts; i++ {
		c.insert(key(i), &entry{})
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
	c.insert(key(inserts-3), &entry{})
	c.cap = 2
	c.insert(key(inserts), &entry{})
	for _, j := range []int{inserts - 1, inserts} {
		if _, ok := c.entries[key(j)]; !ok {
			t.Errorf("after shrinking to cap 2: newest key %d evicted", j)
		}
	}
	if st := c.stats(); st.Evictions != inserts-1 || st.Entries != 2 {
		t.Fatalf("after shrink: evictions=%d entries=%d, want %d/2", st.Evictions, st.Entries, inserts-1)
	}
}

// memoKeeps fills a memo with n packed copies of ins under distinct
// keys and returns the heap it keeps live per entry: the key, the map
// and ring slots, the entry and its packed bytes.
func memoKeeps(t *testing.T, ins Instrumented, n int) float64 {
	t.Helper()
	keys := make([]runKey, n)
	for i := range keys {
		keys[i] = seedKey(t, uint64(i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := newSimCache(n)
	for _, k := range keys {
		e, err := packEntry(&ins)
		if err != nil {
			t.Fatal(err)
		}
		c.insert(k, e)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st := c.stats(); st.Entries != n || st.Evictions != 0 {
		t.Fatalf("entries=%d evictions=%d, want %d/0", st.Entries, st.Evictions, n)
	}
	runtime.KeepAlive(c)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
}

// TestMemoFootprint pins what a memo keeps live per entry. A plain
// entry at DefaultCacheCap keeps ~580 B, its result packed into ~370
// bytes; held unpacked, the result alone was ~1 KB and an entry ~1.3 KB,
// which fails the 640 B bound. An observed entry adds ~65 B a sample
// of its epoch series, which held unpacked costs 200 B a sample.
func TestMemoFootprint(t *testing.T) {
	w, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	r, series, err := core.Run(context.Background(), tinyConfig(1), policy.Norm(), w, engine.Options{Epoch: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	plain := memoKeeps(t, Instrumented{Result: r}, DefaultCacheCap)
	t.Logf("%d plain entries keep %.2f MB, %.0f B an entry", DefaultCacheCap, plain*DefaultCacheCap/1e6, plain)
	if plain > 640 {
		t.Errorf("a plain memo entry keeps %.0f B, want <= 640 B", plain)
	}
	if len(series) < 50 {
		t.Fatalf("the observed run has %d samples, want >= 50", len(series))
	}
	observed := memoKeeps(t, Instrumented{Result: r, Series: series}, 512)
	perSample := (observed - plain) / float64(len(series))
	t.Logf("an observed entry of %d samples keeps %.0f B, %.0f B a sample", len(series), observed, perSample)
	if perSample > 80 {
		t.Errorf("an observed memo entry keeps %.0f B a sample, want <= 80 B", perSample)
	}
}

// BenchmarkMemoHit measures a one-cell RunCells batch whose cell is
// already memoised: the key digest, the memo lookup and the matrix
// runner's own bookkeeping, with no simulation.
func BenchmarkMemoHit(b *testing.B) {
	ResetCache()
	defer ResetCache()
	cells, err := grid(tinyConfig(1), []string{"stream"}, []policy.Spec{policy.Norm()})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := RunCells(context.Background(), cells, Hooks{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCells(context.Background(), cells, Hooks{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := CacheSnapshot(); st.Misses != 1 {
		b.Fatalf("misses = %d, want the one memoising run", st.Misses)
	}
}
