package mem

import (
	"testing"
	"testing/quick"

	"mellow/internal/config"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/sim"
)

// TestQuickRandomSoup throws randomized request mixes at the controller
// under every policy family and checks global invariants:
//
//   - every read completes,
//   - every accepted demand write eventually completes exactly once,
//   - queue depths never exceed their configured capacities (plus the
//     one transient slot a cancelled write reclaims),
//   - wear attempts are at least completed writes,
//   - the memory clock never runs backwards.
func TestQuickRandomSoup(t *testing.T) {
	policies := []policy.Spec{
		policy.Norm(),
		policy.Slow(),
		policy.Norm().WithNC(),
		policy.BMellow().WithSC(),
		policy.BEMellow().WithSC(),
		policy.BEMellow().WithSC().WithWQ(),
		policy.BEMellow().WithSC().WithML(),
		policy.BEMellow().WithWP(),
		policy.Slow().WithSC().WithWP(),
		policy.ESlow().WithSC(),
	}
	f := func(seed uint64, pick uint8) bool {
		spec := policies[int(pick)%len(policies)]
		src := rng.New(seed)
		k := &sim.Kernel{}
		c := New(k, config.Default().Memory, spec)
		eagerN := 0
		c.SetEagerSource(func() (uint64, bool) {
			if !src.Bool(0.3) {
				return 0, false
			}
			eagerN++
			return src.Uintn(1 << 20), true
		})
		var reads []*Request
		prev := k.Now()
		for i := 0; i < 400; i++ {
			line := src.Uintn(1 << 12) // small space: plenty of conflicts
			switch {
			case src.Bool(0.45):
				reads = append(reads, c.SubmitRead(line, k.Now()))
			default:
				c.SubmitWrite(line, k.Now())
			}
			if src.Bool(0.2) {
				k.AdvanceTo(k.Now() + sim.Tick(src.Uintn(2000)))
			}
			if k.Now() < prev {
				return false
			}
			prev = k.Now()
			// Queue caps hold up to cancellation re-queues: every bank
			// can have at most one in-flight write bounced back.
			r, w, e := c.QueueDepths()
			cfg := config.Default().Memory
			banks := cfg.Banks()
			if r > cfg.ReadQueue || w > cfg.WriteQueue+banks || e > cfg.EagerQueue+banks {
				return false
			}
		}
		for _, r := range reads {
			c.WaitRead(r)
			if !r.Done() {
				return false
			}
		}
		// Let the rest drain.
		k.AdvanceTo(k.Now() + sim.NS(3_000_000))
		s := c.Snapshot()
		if _, w, _ := c.QueueDepths(); w != 0 {
			return false
		}
		// Every accepted write completes exactly once (coalesced requests
		// were merged, never enqueued).
		if s.WritesDone != s.WriteQueued {
			return false
		}
		// Attempts include cancellations; never fewer than completions.
		var attempts uint64
		for b := 0; b < config.Default().Memory.Banks(); b++ {
			attempts += c.Meter(b).Snapshot().TotalAttempts()
		}
		return attempts >= s.TotalWrites()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickReadsAlwaysComplete drives dependent read chains against
// heavy write pressure: no read may hang, under any policy.
func TestQuickReadsAlwaysComplete(t *testing.T) {
	f := func(seed uint64, cancellable bool) bool {
		spec := policy.Slow()
		if cancellable {
			spec = spec.WithSC()
		}
		src := rng.New(seed)
		k := &sim.Kernel{}
		c := New(k, config.Default().Memory, spec)
		for i := 0; i < 100; i++ {
			// Saturate one bank with writes, then read from it.
			bank := src.Uintn(16)
			for j := 0; j < 5; j++ {
				c.SubmitWrite(bank|src.Uintn(1<<10)<<4, k.Now())
			}
			r := c.SubmitRead(bank|src.Uintn(1<<10)<<4, k.Now())
			done := c.WaitRead(r)
			if !r.Done() || done < r.arrive {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
