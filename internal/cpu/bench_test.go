package cpu

import (
	"testing"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/mem"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/sim"
	"mellow/internal/trace"
)

// BenchmarkCoreStep measures one Core.Step — dispatch, the ROB and MSHR
// bookkeeping, the hierarchy access, the prefetcher and the memory
// traffic it drives — over the Table I configuration and a real
// controller under B-Mellow+SC. mcf is dependent random reads that
// stall on the ROB head; lbm is write-heavy streaming that keeps the
// prefetcher and the store-allocate fetches busy. A warm-up fills the
// caches and grows the core's queues to their working size first, so
// allocs/op shows what the steady state allocates.
func BenchmarkCoreStep(b *testing.B) {
	for _, name := range []string{"mcf", "lbm"} {
		b.Run(name, func(b *testing.B) {
			w, err := trace.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg := config.Default()
			k := &sim.Kernel{}
			hier := cache.NewHierarchy(cfg.Caches, rng.New(1))
			ctl := mem.New(k, cfg.Memory, policy.BMellow().WithSC())
			ctl.SetEagerSource(hier.EagerCandidate)
			c := New(cfg, hier, ctl, w.New(1))
			for i := 0; i < 100_000; i++ {
				c.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Step()
			}
		})
	}
}
