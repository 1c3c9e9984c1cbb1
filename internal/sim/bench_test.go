package sim

import "testing"

// BenchmarkKernelSchedule measures the kernel hot path in isolation —
// schedule + fire through the timer wheel — so optimization PRs can
// localize wins without running a full experiment. The mix mirrors the
// memory controller's event population: mostly near-future events, a
// rotating periodic far-future timer, frequent same-tick scheduling.
func BenchmarkKernelSchedule(b *testing.B) {
	b.Run("near", func(b *testing.B) {
		var k Kernel
		h := nopHandler{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.AtEvent(k.Now()+1, h, 0, 0)
			k.AtEvent(k.Now()+900, h, 0, 0) // longest write pulse
			k.AtEvent(k.Now(), h, 0, 0)     // same-tick (scheduleSoon pattern)
			k.AdvanceTo(k.Now() + 1)
		}
		k.Drain()
	})
	b.Run("overflow", func(b *testing.B) {
		// A few long-period timers beyond the horizon (the Wear Quota /
		// profiler shape) riding over a stream of near events.
		var k Kernel
		h := nopHandler{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i&127 == 0 {
				k.AtEvent(k.Now()+2*wheelSlots, h, 0, 0) // beyond the horizon
			}
			k.AtEvent(k.Now()+5, h, 0, 0)
			k.AdvanceTo(k.Now() + 5)
		}
		k.Drain()
	})
	b.Run("closure", func(b *testing.B) {
		// An Event scheduled as its own Handler, the way the profile
		// rotation is.
		var k Kernel
		fn := Event(func(Tick) {})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.after(1, fn)
			k.AdvanceTo(k.Now() + 1)
		}
	})
}

type nopHandler struct{}

func (nopHandler) OnEvent(Tick, uint64, uint64) {}
