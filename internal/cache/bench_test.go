package cache

import (
	"testing"

	"mellow/internal/config"
	"mellow/internal/rng"
)

// BenchmarkCacheAccess measures the hierarchy layer in isolation — the
// packed-LRU-order lookup/touch/install path — so an optimization can
// localize its win without running a full experiment. The address streams
// model the two extremes the simulator lives between: a hot working set
// that hits in L1/L2, and a striding sweep that misses to memory and
// keeps the fill/evict/back-invalidate path busy. Between them, llc is
// the path a resident hot set larger than L2 takes (hmmer's): upper-level
// misses that hit the LLC and refill L1 and L2.
func BenchmarkCacheAccess(b *testing.B) {
	cfg := config.Default().Caches
	b.Run("hot", func(b *testing.B) {
		h := NewHierarchy(cfg, rng.New(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// 16 hot lines: after the cold fills this is all upper-level hits.
			h.Access(uint64(i&15)<<6, i&3 == 0)
		}
	})
	b.Run("llc", func(b *testing.B) {
		h := NewHierarchy(cfg, rng.New(1))
		// Half the LLC's lines, four times L2's: an odd multiplier walks
		// them all in a scattered order, so after one warm pass every
		// access misses L1 and L2 and hits the LLC.
		lines := uint64(cfg.L3.SizeBytes / config.LineBytes / 2)
		at := func(i int) uint64 { return uint64(i) * 0x9e3779b1 & (lines - 1) << 6 }
		for i := 0; i < int(lines); i++ {
			h.Access(at(i), false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Access(at(i), i&3 == 0)
		}
	})
	b.Run("stride", func(b *testing.B) {
		h := NewHierarchy(cfg, rng.New(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A large stride defeats every level: each access is an LLC
			// miss with installs (and eventually evictions) at all levels.
			h.Access(uint64(i)*64*129, i&1 == 0)
		}
	})
	b.Run("eager", func(b *testing.B) {
		h := NewHierarchy(cfg, rng.New(1))
		// Dirty a spread of lines, then measure candidate selection.
		for i := 0; i < 1<<16; i++ {
			h.Access(uint64(i)*64*9, true)
		}
		h.RotateProfile()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.EagerCandidate()
			if i&1023 == 0 {
				h.Access(uint64(i)*64*9, true) // keep dirty lines coming
			}
		}
	})
}
