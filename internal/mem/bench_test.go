package mem

import (
	"testing"

	"mellow/internal/config"
	"mellow/internal/policy"
	"mellow/internal/sim"
)

// BenchmarkControllerTick measures the controller layer in isolation —
// submit, schedule, issue and complete through the indexed per-bank
// queues — so optimization PRs can localize wins without running a full
// experiment. The mix models the LLC-facing traffic of a write-heavy
// run: interleaved reads and write-backs striding across banks, with
// coalescing and forwarding hits sprinkled in by address reuse.
func BenchmarkControllerTick(b *testing.B) {
	bench := func(b *testing.B, spec policy.Spec) {
		k := &sim.Kernel{}
		c := New(k, config.Default().Memory, spec)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			line := uint64(i) * 7 // strides over banks and row buffers
			c.SubmitWrite(line, k.Now())
			r := c.SubmitRead(line^1, k.Now())
			if i&7 == 0 {
				// Occasional same-line read exercises forwarding.
				c.Release(c.SubmitRead(line, k.Now()))
			}
			c.WaitRead(r)
			// Released reads recycle their slots, so the arena stays at
			// its steady-state size instead of growing per read.
			c.Release(r)
		}
		// Let the queued writes finish. Quota period timers are daemon
		// events, so this terminates even under +WQ.
		c.Drain()
	}
	b.Run("norm", func(b *testing.B) { bench(b, policy.Norm()) })
	b.Run("mellow", func(b *testing.B) { bench(b, policy.BEMellow().WithSC().WithWQ()) })
}
