package core

import (
	"runtime"
	"testing"

	"mellow/internal/config"
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
