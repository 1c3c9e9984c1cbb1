package core

import (
	"context"
	"runtime"
	"testing"

	"mellow/internal/config"
	"mellow/internal/engine"
	"mellow/internal/policy"
	"mellow/internal/trace"
	"mellow/internal/wear"
)

// TestRunFootprint pins how much one run allocates: a 2 M-instruction
// mcf run on softwear, the densest leveler, under B-Mellow+SC. Dense
// SoftWear tables for every bank and one never-recycled request slot per
// memory operation came to 57.5 MB; lazily allocated tables and recycled
// slots keep the whole run under 4 MB.
func TestRunFootprint(t *testing.T) {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 500_000
	cfg.Run.DetailedInstructions = 1_500_000
	cfg.Memory.WearLeveler = wear.BackendSoftWear
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := mustRun(t, cfg, policy.BMellow().WithSC(), "mcf")
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("run allocated %.2f MB", float64(got)/(1<<20))
	if got >= 4<<20 {
		t.Errorf("run allocated %.1f MB, want < 4 MB", float64(got)/(1<<20))
	}
	if r.Mem.Reads < 10000 || r.Mem.WritesDone == 0 {
		t.Errorf("run exercised too little: %d reads, %d writes", r.Mem.Reads, r.Mem.WritesDone)
	}
}

// BenchmarkNewSystem measures building one system per leveler backend:
// the cache hierarchy, the controller with its per-bank levelers and
// quota state, and the core. Every sweep cell pays this once.
func BenchmarkNewSystem(b *testing.B) {
	w, err := trace.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	for _, backend := range wear.Backends() {
		b.Run(backend, func(b *testing.B) {
			cfg := config.Default()
			cfg.Memory.WearLeveler = backend
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewSystem(cfg, policy.BMellow().WithSC(), w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// shortRunCfg is a mellowd service job's size: 100 k instructions, no
// warm-up.
func shortRunCfg() config.Config {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 0
	cfg.Run.DetailedInstructions = 100_000
	return cfg
}

// TestShortRunFootprint pins what a short run allocates once the pools
// are warm: a fresh hierarchy alone is ~650 KB of tags, clocks and set
// state, the kernel and its timer wheel ~33 KB and the first request chunk
// ~57 KB, none of which a run on recycled storage allocates.
func TestShortRunFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops values at random")
	}
	// A pool keeps a lone released value in the releasing P's private
	// slot, which a Get on another P never sees: on a loaded host the
	// test goroutine can move between the two runs and build everything
	// fresh (739 KB). One P keeps both runs on the same slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := shortRunCfg()
	spec := policy.BEMellow().WithSC().WithWQ()
	mustRun(t, cfg, spec, "lbm") // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustRun(t, cfg, spec, "mcf")
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("short run allocated %.0f KB", float64(got)/(1<<10))
	if got > 32<<10 {
		t.Errorf("short run allocated %.0f KB, want <= 32 KB", float64(got)/(1<<10))
	}
}

// BenchmarkShortRun measures back-to-back short runs, a mellowd
// service job each, rotating over the builtin workloads: building the
// system, simulating and releasing it. With recycled cache arrays,
// kernels and request chunks a run allocates what its simulation needs,
// not a new hierarchy, kernel or arena.
func BenchmarkShortRun(b *testing.B) {
	cfg := shortRunCfg()
	spec := policy.BEMellow().WithSC().WithWQ()
	ws := trace.All()
	var instrs, ticks float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, _, err := Run(context.Background(), cfg, spec, ws[i%len(ws)], engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		instrs += float64(r.Instructions)
		ticks += r.Cycles
	}
	b.ReportMetric(instrs/float64(b.N), "instrs/op")
	b.ReportMetric(ticks/float64(b.N), "simticks/op")
}
