package mem

import (
	"testing"

	"mellow/internal/config"
	"mellow/internal/nvm"
	"mellow/internal/policy"
	"mellow/internal/sim"
)

// newCtl builds a controller on a fresh kernel with the Table II default
// memory system.
func newCtl(spec policy.Spec) (*sim.Kernel, *Controller) {
	k := &sim.Kernel{}
	return k, New(k, config.Default().Memory, spec)
}

// lineForBank returns the n-th line address mapping to the given bank
// (16 banks: low 4 line-address bits select the bank).
func lineForBank(bank, n int) uint64 { return uint64(n)<<4 | uint64(bank) }

func TestReadTiming(t *testing.T) {
	k, c := newCtl(policy.Norm())
	r := c.SubmitRead(lineForBank(0, 1), 0)
	done := c.WaitRead(r)
	// Cold read: tRCD (240) + tCAS (5) + burst (20) = 265 ticks.
	if done != 265 {
		t.Errorf("cold read done at %d ticks, want 265", done)
	}
	// Row-buffer hit: a second line in the same 1KB buffer segment.
	r2 := c.SubmitRead(lineForBank(0, 0), k.Now())
	done2 := c.WaitRead(r2)
	if got := done2 - done; got != 25 { // tCAS + burst
		t.Errorf("row-hit read took %d ticks after first, want 25", got)
	}
	s := c.Snapshot()
	if s.RowMisses != 1 || s.RowHits != 1 {
		t.Errorf("row hits/misses = %d/%d, want 1/1", s.RowHits, s.RowMisses)
	}
}

func TestRowBufferTagGranularity(t *testing.T) {
	_, c := newCtl(policy.Norm())
	r := c.SubmitRead(lineForBank(3, 0), 0)
	c.WaitRead(r)
	// Line 16 buffers away in the same bank: different 1KB segment.
	r2 := c.SubmitRead(lineForBank(3, 1000), c.Now())
	c.WaitRead(r2)
	if s := c.Snapshot(); s.RowMisses != 2 {
		t.Errorf("row misses = %d, want 2 (distinct segments)", s.RowMisses)
	}
}

func TestWriteModesByPolicy(t *testing.T) {
	// Norm: every write normal. Slow: every write slow.
	for _, tc := range []struct {
		spec policy.Spec
		mode nvm.WriteMode
	}{
		{policy.Norm(), nvm.WriteNormal},
		{policy.Slow(), nvm.WriteSlow30},
	} {
		k, c := newCtl(tc.spec)
		c.SubmitWrite(lineForBank(2, 1), 0)
		k.AdvanceTo(sim.NS(10000))
		s := c.Snapshot()
		if s.WritesByMode[tc.mode] != 1 || s.TotalWrites() != 1 {
			t.Errorf("%s: writes by mode = %v", tc.spec.Name, s.WritesByMode)
		}
	}
}

func TestBankAwareSingleWriteIsSlow(t *testing.T) {
	k, c := newCtl(policy.BMellow())
	c.SubmitWrite(lineForBank(5, 1), 0)
	k.AdvanceTo(sim.NS(10000))
	s := c.Snapshot()
	if s.WritesByMode[nvm.WriteSlow30] != 1 {
		t.Errorf("sole write not slow: %v", s.WritesByMode)
	}
}

func TestBankAwareMultipleWrites(t *testing.T) {
	// Two write-backs to the same bank arriving together: the first
	// issues normal (a second is waiting), the survivor issues slow.
	k, c := newCtl(policy.BMellow())
	c.SubmitWrite(lineForBank(5, 1), 0)
	c.SubmitWrite(lineForBank(5, 2), 0)
	k.AdvanceTo(sim.NS(20000))
	s := c.Snapshot()
	if s.WritesByMode[nvm.WriteNormal] != 1 || s.WritesByMode[nvm.WriteSlow30] != 1 {
		t.Errorf("writes by mode = %v, want one normal + one slow", s.WritesByMode)
	}
}

func TestBankAwareDifferentBanksBothSlow(t *testing.T) {
	k, c := newCtl(policy.BMellow())
	c.SubmitWrite(lineForBank(1, 1), 0)
	c.SubmitWrite(lineForBank(2, 1), 0)
	k.AdvanceTo(sim.NS(20000))
	s := c.Snapshot()
	if s.WritesByMode[nvm.WriteSlow30] != 2 {
		t.Errorf("writes by mode = %v, want two slow", s.WritesByMode)
	}
}

func TestReadPriorityOverWrite(t *testing.T) {
	// A read and a write for the same bank, submitted together: the read
	// must be served first.
	_, c := newCtl(policy.Norm())
	// Hold the bank with one write first so both can queue behind it.
	c.SubmitWrite(lineForBank(4, 9), 0)
	c.SubmitWrite(lineForBank(4, 10), 1)
	r := c.SubmitRead(lineForBank(4, 11), 2)
	done := c.WaitRead(r)
	s := c.Snapshot()
	// Only the first write may have completed before the read.
	if s.WritesDone > 1 {
		t.Errorf("%d writes completed before the read", s.WritesDone)
	}
	if done == 0 {
		t.Error("read never completed")
	}
}

func TestWriteDrainTriggersAndClears(t *testing.T) {
	_, c := newCtl(policy.Norm())
	// Fill the write queue to the high threshold with same-bank writes
	// while reads keep the bank nominally read-prioritised.
	for i := 0; i < 32; i++ {
		c.SubmitWrite(lineForBank(0, i+1), 0)
	}
	if !c.Draining() {
		t.Fatal("drain did not trigger at high threshold")
	}
	c.AdvanceTo(sim.NS(100000))
	if c.Draining() {
		_, w, _ := c.QueueDepths()
		t.Fatalf("drain never cleared; %d writes still queued", w)
	}
	s := c.Snapshot()
	if s.Drains != 1 {
		t.Errorf("drain count = %d, want 1", s.Drains)
	}
	if s.DrainFraction <= 0 || s.DrainFraction >= 1 {
		t.Errorf("drain fraction = %v, want in (0,1)", s.DrainFraction)
	}
}

func TestDrainPrioritisesWrites(t *testing.T) {
	_, c := newCtl(policy.Norm())
	for i := 0; i < 32; i++ {
		c.SubmitWrite(lineForBank(0, i+1), 0)
	}
	if !c.Draining() {
		t.Fatal("expected drain")
	}
	// A read to the draining bank must wait for several writes: with
	// 31 queued writes to drain to 16, the read completes only after
	// the drain ends or after the queue thins for its bank.
	r := c.SubmitRead(lineForBank(0, 100), c.Now())
	c.WaitRead(r)
	s := c.Snapshot()
	if s.WritesDone < 5 {
		t.Errorf("read jumped the drain: only %d writes done first", s.WritesDone)
	}
}

func TestWriteCancellation(t *testing.T) {
	// Slow cancellable write in flight; a read to the same bank arrives
	// mid-pulse and must abort it.
	_, c := newCtl(policy.Slow().WithSC())
	c.SubmitWrite(lineForBank(7, 1), 0)
	c.AdvanceTo(sim.NS(100)) // write pulse (450 ns) is in flight
	r := c.SubmitRead(lineForBank(7, 2), sim.NS(100))
	done := c.WaitRead(r)
	// Read should finish well before the 450 ns pulse would have ended
	// plus read time: cancellation frees the bank at ~100 ns.
	if done.Nanoseconds() > 300 {
		t.Errorf("read done at %v ns; cancellation did not free the bank", done.Nanoseconds())
	}
	c.AdvanceTo(sim.NS(100000))
	s := c.Snapshot()
	if s.Cancellations != 1 || s.CancelledByMode[nvm.WriteSlow30] != 1 {
		t.Errorf("cancellations = %d (%v)", s.Cancellations, s.CancelledByMode)
	}
	// The write must still complete eventually (retried).
	if s.WritesByMode[nvm.WriteSlow30] != 1 {
		t.Errorf("cancelled write never retried: %v", s.WritesByMode)
	}
	// Wear counts both the aborted attempt and the final write.
	if got := c.Meter(7).Snapshot().TotalAttempts(); got != 2 {
		t.Errorf("bank attempts = %d, want 2", got)
	}
}

func TestNoCancellationWithoutFlag(t *testing.T) {
	_, c := newCtl(policy.Slow()) // no +SC
	c.SubmitWrite(lineForBank(7, 1), 0)
	c.AdvanceTo(sim.NS(100))
	r := c.SubmitRead(lineForBank(7, 2), sim.NS(100))
	done := c.WaitRead(r)
	// Must wait for the full 450 ns pulse before the read runs.
	if done < sim.NS(450) {
		t.Errorf("read done at %v ns, before the slow pulse finished", done.Nanoseconds())
	}
	if s := c.Snapshot(); s.Cancellations != 0 {
		t.Errorf("cancellations = %d, want 0", s.Cancellations)
	}
}

func TestForwarding(t *testing.T) {
	_, c := newCtl(policy.Norm())
	// Park a write in the queue behind another so it stays queued.
	c.SubmitWrite(lineForBank(9, 1), 0)
	c.SubmitWrite(lineForBank(9, 2), 0)
	r := c.SubmitRead(lineForBank(9, 2), 1)
	done := c.WaitRead(r)
	if got := done - 1; got > forwardLatency {
		t.Errorf("forwarded read took %d ticks, want <= %d", got, forwardLatency)
	}
	if s := c.Snapshot(); s.Forwarded != 1 {
		t.Errorf("forwarded = %d, want 1", s.Forwarded)
	}
}

// TestReadsDoneCountsCompletions requires ReadsDone to move exactly
// when a read turns done, through a bank or by forwarding, and to
// survive ResetStats.
func TestReadsDoneCountsCompletions(t *testing.T) {
	_, c := newCtl(policy.Norm())
	r := c.SubmitRead(lineForBank(3, 1), 0)
	if n := c.ReadsDone(); n != 0 {
		t.Fatalf("ReadsDone = %d before any read completed", n)
	}
	c.WaitRead(r)
	if n := c.ReadsDone(); n != 1 {
		t.Fatalf("ReadsDone = %d after a bank read, want 1", n)
	}
	c.SubmitWrite(lineForBank(9, 1), c.Now())
	c.SubmitWrite(lineForBank(9, 2), c.Now())
	if f := c.SubmitRead(lineForBank(9, 2), c.Now()); !f.Done() || c.ReadsDone() != 2 {
		t.Fatalf("forwarded read: done %v, ReadsDone = %d, want true and 2", f.Done(), c.ReadsDone())
	}
	c.ResetStats()
	if n := c.ReadsDone(); n != 2 {
		t.Errorf("ReadsDone = %d after ResetStats, want 2", n)
	}
}

func TestWriteCoalescing(t *testing.T) {
	k, c := newCtl(policy.Norm())
	c.SubmitWrite(lineForBank(9, 1), 0)
	c.SubmitWrite(lineForBank(9, 2), 0) // keeps first from issuing alone
	c.SubmitWrite(lineForBank(9, 2), 1) // duplicate of the queued write
	k.AdvanceTo(sim.NS(10000))
	s := c.Snapshot()
	if s.Coalesced != 1 {
		t.Errorf("coalesced = %d, want 1", s.Coalesced)
	}
	if s.WritesDone != 2 {
		t.Errorf("writes done = %d, want 2", s.WritesDone)
	}
}

func TestEagerQueueLifecycle(t *testing.T) {
	k, c := newCtl(policy.BEMellow())
	supply := []uint64{lineForBank(1, 1), lineForBank(2, 1), lineForBank(3, 1)}
	i := 0
	c.SetEagerSource(func() (uint64, bool) {
		if i >= len(supply) {
			return 0, false
		}
		v := supply[i]
		i++
		return v, true
	})
	k.AdvanceTo(sim.NS(50000))
	s := c.Snapshot()
	if s.EagerQueued != 3 {
		t.Errorf("eager queued = %d, want 3", s.EagerQueued)
	}
	if s.EagerDone != 3 {
		t.Errorf("eager done = %d, want 3", s.EagerDone)
	}
	// Eager writes are always slow in BE-Mellow.
	if s.WritesByMode[nvm.WriteSlow30] != 3 {
		t.Errorf("eager writes not slow: %v", s.WritesByMode)
	}
}

func TestEagerYieldsToDemand(t *testing.T) {
	// An eager entry for a bank with a queued demand write must wait.
	k, c := newCtl(policy.BEMellow())
	fed := false
	c.SetEagerSource(func() (uint64, bool) {
		if fed {
			return 0, false
		}
		fed = true
		return lineForBank(6, 50), true
	})
	// Demand writes keep bank 6 occupied from t=0 until ~1.5 µs (seven
	// normal pulses then one bank-aware slow pulse).
	for n := 1; n <= 8; n++ {
		c.SubmitWrite(lineForBank(6, n), 0)
	}
	k.AdvanceTo(sim.NS(1000))
	s := c.Snapshot()
	if s.EagerDone != 0 {
		t.Error("eager write issued while demand writes were queued for the bank")
	}
	k.AdvanceTo(sim.NS(60000))
	if s := c.Snapshot(); s.EagerDone != 1 {
		t.Errorf("eager write never issued after bank went idle: %+v", s.Counters)
	}
}

func TestWearQuotaForcesSlow(t *testing.T) {
	spec := policy.Norm().WithWQ()
	k, c := newCtl(spec)
	// Blast one bank with far more than its per-period quota (~37
	// normal-write damage), then cross a period boundary.
	for n := 1; n <= 100; n++ {
		c.SubmitWrite(lineForBank(0, n), k.Now())
		k.AdvanceTo(k.Now() + sim.NS(400)) // space them out; avoid drains
	}
	k.AdvanceTo(spec.QuotaPeriod + sim.NS(1000))
	if !c.Quota(0).Exceeded() {
		t.Fatal("bank 0 quota not exceeded after 100 writes in one period")
	}
	if c.Quota(1).Exceeded() {
		t.Error("idle bank 1 reported exceeded")
	}
	// Writes to bank 0 in the new period must be slow despite Norm base.
	before := c.Snapshot().WritesByMode
	for n := 200; n < 205; n++ {
		c.SubmitWrite(lineForBank(0, n), k.Now())
		k.AdvanceTo(k.Now() + sim.NS(1000))
	}
	k.AdvanceTo(k.Now() + sim.NS(10000))
	after := c.Snapshot().WritesByMode
	if got := after[nvm.WriteSlow30] - before[nvm.WriteSlow30]; got != 5 {
		t.Errorf("slow writes in quota-exceeded period = %d, want 5", got)
	}
}

func TestStartGapMigrations(t *testing.T) {
	k, c := newCtl(policy.Norm())
	// psi = 100: 250 writes to one bank yield 2 gap moves.
	for n := 1; n <= 250; n++ {
		c.SubmitWrite(lineForBank(3, n), k.Now())
		k.AdvanceTo(k.Now() + sim.NS(500))
	}
	k.AdvanceTo(k.Now() + sim.NS(10000))
	s := c.Snapshot()
	if s.GapMoves != 2 {
		t.Errorf("gap moves = %d, want 2", s.GapMoves)
	}
}

func TestUtilizationMeters(t *testing.T) {
	k, c := newCtl(policy.Norm())
	// One 150 ns write on bank 0, then idle until 1500 ns.
	c.SubmitWrite(lineForBank(0, 1), 0)
	k.AdvanceTo(sim.NS(1500))
	s := c.Snapshot()
	u := s.BankUtilization[0]
	if u < 0.08 || u > 0.13 { // ~150/1500
		t.Errorf("bank 0 utilization = %v, want ~0.10", u)
	}
	if s.BankUtilization[1] != 0 {
		t.Errorf("idle bank utilization = %v", s.BankUtilization[1])
	}
}

func TestEnergyAccounting(t *testing.T) {
	k, c := newCtl(policy.Norm())
	c.SubmitWrite(lineForBank(0, 1), 0)
	k.AdvanceTo(sim.NS(2000))
	s := c.Snapshot()
	wantWrite := nvm.EnergyModel{Cell: nvm.CellC}.WriteEnergyPJ(nvm.WriteNormal)
	if s.EnergyPJ < wantWrite*0.99 || s.EnergyPJ > wantWrite*1.01 {
		t.Errorf("energy = %v pJ, want ~%v (one normal write)", s.EnergyPJ, wantWrite)
	}
	r := c.SubmitRead(lineForBank(1, 1), k.Now())
	c.WaitRead(r)
	s = c.Snapshot()
	wantTotal := wantWrite + 1503.0 + 100.0
	if s.EnergyPJ < wantTotal*0.99 || s.EnergyPJ > wantTotal*1.01 {
		t.Errorf("energy = %v pJ, want ~%v (write + cold read)", s.EnergyPJ, wantTotal)
	}
}

func TestLifetimeSnapshot(t *testing.T) {
	k, c := newCtl(policy.Norm())
	for n := 1; n <= 20; n++ {
		c.SubmitWrite(lineForBank(0, n), k.Now())
		k.AdvanceTo(k.Now() + sim.NS(500))
	}
	k.AdvanceTo(sim.NS(1e6)) // 1 ms window
	s := c.Snapshot()
	// 20 normal writes over 1 ms on a 4Mi-block bank with endurance 5e6
	// and 0.9 leveling: lifetime = 1e-3 s * (4Mi*5e6*0.9)/20.
	blocks := float64(config.Default().Memory.BlocksPerBank())
	wantSec := 1e-3 * blocks * 5e6 * 0.9 / 20
	wantYears := wantSec / policy.SecondsPerYear
	if s.LifetimeYears < wantYears*0.98 || s.LifetimeYears > wantYears*1.02 {
		t.Errorf("lifetime = %v years, want ~%v", s.LifetimeYears, wantYears)
	}
}

func TestSlowWritesExtendSnapshotLifetime(t *testing.T) {
	run := func(spec policy.Spec) float64 {
		k, c := newCtl(spec)
		for n := 1; n <= 50; n++ {
			c.SubmitWrite(lineForBank(0, n), k.Now())
			k.AdvanceTo(k.Now() + sim.NS(1000))
		}
		k.AdvanceTo(sim.NS(1e6))
		return c.Snapshot().LifetimeYears
	}
	norm := run(policy.Norm())
	slow := run(policy.Slow())
	ratio := slow / norm
	if ratio < 8.9 || ratio > 9.1 {
		t.Errorf("slow/norm lifetime ratio = %v, want 9 (Expo=2, 3x pulse)", ratio)
	}
}

func TestResetStatsClearsWindow(t *testing.T) {
	k, c := newCtl(policy.Norm())
	c.SubmitWrite(lineForBank(0, 1), 0)
	k.AdvanceTo(sim.NS(5000))
	c.ResetStats()
	s := c.Snapshot()
	if s.TotalWrites() != 0 || s.EnergyPJ != 0 || s.Reads != 0 {
		t.Errorf("stats after reset: %+v", s)
	}
	if s.AvgUtilization != 0 {
		t.Errorf("utilization after reset = %v", s.AvgUtilization)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Snapshot {
		k, c := newCtl(policy.BEMellow().WithSC())
		n := 0
		c.SetEagerSource(func() (uint64, bool) {
			n++
			if n%3 == 0 {
				return lineForBank(n%16, n), true
			}
			return 0, false
		})
		for i := 0; i < 200; i++ {
			c.SubmitWrite(lineForBank(i%16, i+1), k.Now())
			if i%5 == 0 {
				r := c.SubmitRead(lineForBank((i+3)%16, i+7), k.Now())
				c.WaitRead(r)
			}
			k.AdvanceTo(k.Now() + sim.NS(100))
		}
		k.AdvanceTo(k.Now() + sim.NS(50000))
		return c.Snapshot()
	}
	a, b := run(), run()
	if a.Counters != b.Counters || a.EnergyPJ != b.EnergyPJ || a.WritesByMode != b.WritesByMode {
		t.Errorf("controller not deterministic:\n%+v\n%+v", a.Counters, b.Counters)
	}
}

func TestTFAWThrottlesActivates(t *testing.T) {
	// Five row-miss reads to five banks of the same rank: the fifth
	// activate must wait for the tFAW window (50 ns) after the first.
	_, c := newCtl(policy.Norm())
	var last *Request
	for b := 0; b < 4; b++ {
		last = c.SubmitRead(lineForBank(b, 1), 0)
	}
	c.WaitRead(last)
	fifth := c.SubmitRead(lineForBank(0, 2000), c.Now())
	done := c.WaitRead(fifth)
	_ = done
	// All five used distinct row segments: five activations recorded.
	if s := c.Snapshot(); s.RowMisses != 5 {
		t.Errorf("row misses = %d, want 5", s.RowMisses)
	}
}

func TestEagerDedupAgainstWriteQueue(t *testing.T) {
	k, c := newCtl(policy.BEMellow())
	line := lineForBank(8, 3)
	fed := 0
	c.SetEagerSource(func() (uint64, bool) {
		fed++
		if fed > 3 {
			return 0, false
		}
		return line, true
	})
	// The same line is already a queued demand write (parked behind
	// another write for the bank).
	c.SubmitWrite(lineForBank(8, 99), 0)
	c.SubmitWrite(line, 0)
	k.AdvanceTo(sim.NS(100))
	if s := c.Snapshot(); s.EagerQueued != 0 {
		t.Errorf("eager accepted a line already in the write queue (%d)", s.EagerQueued)
	}
}

func TestWritebackReplacesStaleEagerEntry(t *testing.T) {
	k, c := newCtl(policy.BEMellow())
	line := lineForBank(9, 5)
	fed := false
	c.SetEagerSource(func() (uint64, bool) {
		if fed {
			return 0, false
		}
		fed = true
		return line, true
	})
	// Keep bank 9 busy so the eager entry stays queued.
	for n := 0; n < 6; n++ {
		c.SubmitWrite(lineForBank(9, 100+n), 0)
	}
	k.AdvanceTo(sim.NS(60)) // eager pump fires at 25 ns
	_, _, eBefore := c.QueueDepths()
	if eBefore != 1 {
		t.Fatalf("eager entry not queued (depth %d)", eBefore)
	}
	// A fresh demand write-back to the same line supersedes it.
	c.SubmitWrite(line, k.Now())
	_, _, eAfter := c.QueueDepths()
	if eAfter != 0 {
		t.Errorf("stale eager entry not removed (depth %d)", eAfter)
	}
	k.AdvanceTo(sim.NS(100000))
	if s := c.Snapshot(); s.EagerDone != 0 {
		t.Errorf("superseded eager write still completed (%d)", s.EagerDone)
	}
}

func TestForwardFromInFlightWrite(t *testing.T) {
	_, c := newCtl(policy.Slow())
	line := lineForBank(11, 1)
	c.SubmitWrite(line, 0)
	c.AdvanceTo(sim.NS(100)) // pulse in flight (not cancellable)
	r := c.SubmitRead(line, sim.NS(100))
	done := c.WaitRead(r)
	if done > sim.NS(110) {
		t.Errorf("read of in-flight write data not forwarded (done at %v ns)", done.Nanoseconds())
	}
	if s := c.Snapshot(); s.Forwarded != 1 {
		t.Errorf("forwarded = %d, want 1", s.Forwarded)
	}
}

func TestWriteThroughDoesNotOpenRow(t *testing.T) {
	// Writes bypass the row buffer (Table II): a read following a write
	// to the same 1 KB segment must still pay the activation.
	k, c := newCtl(policy.Norm())
	c.SubmitWrite(lineForBank(2, 1), 0)
	k.AdvanceTo(sim.NS(1000))
	r := c.SubmitRead(lineForBank(2, 0), k.Now()) // same buffer segment
	c.WaitRead(r)
	s := c.Snapshot()
	if s.RowHits != 0 || s.RowMisses != 1 {
		t.Errorf("row hits/misses = %d/%d; write must not warm the row buffer",
			s.RowHits, s.RowMisses)
	}
}

func TestFourBankTopology(t *testing.T) {
	cfg, err := config.Default().WithBanks(4)
	if err != nil {
		t.Fatal(err)
	}
	k := &sim.Kernel{}
	c := New(k, cfg.Memory, policy.BMellow())
	// Lines map across only 4 banks now.
	for n := 0; n < 16; n++ {
		c.SubmitWrite(uint64(n), k.Now())
	}
	k.AdvanceTo(sim.NS(100000))
	s := c.Snapshot()
	if len(s.BankUtilization) != 4 {
		t.Fatalf("bank count = %d, want 4", len(s.BankUtilization))
	}
	if s.TotalWrites() != 16 {
		t.Errorf("writes = %d, want 16", s.TotalWrites())
	}
	for b, u := range s.BankUtilization {
		if u == 0 {
			t.Errorf("bank %d idle; interleave broken", b)
		}
	}
}

func TestMultiChannelBusesIndependent(t *testing.T) {
	cfg := config.Default()
	cfg.Memory.Channels = 2
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Memory.Banks() != 32 || cfg.Memory.TotalRanks() != 8 {
		t.Fatalf("2 channels: %d banks in %d ranks, want 32 in 8", cfg.Memory.Banks(), cfg.Memory.TotalRanks())
	}
	k := &sim.Kernel{}
	c := New(k, cfg.Memory, policy.Norm())
	// Banks 0 and 1 are on different channels (bank % channels); their
	// data bursts must not serialize against each other.
	r0 := c.SubmitRead(0, 0)
	r1 := c.SubmitRead(1, 0)
	d0, d1 := c.WaitRead(r0), c.WaitRead(r1)
	if d0 != d1 {
		t.Errorf("cross-channel reads not fully parallel: %d vs %d ticks", d0, d1)
	}
	// Same-channel banks (0 and 2) share a bus: the second transfer
	// queues behind the first.
	k2 := &sim.Kernel{}
	c2 := New(k2, cfg.Memory, policy.Norm())
	s0 := c2.SubmitRead(0, 0)
	s2 := c2.SubmitRead(2, 0)
	e0, e2 := c2.WaitRead(s0), c2.WaitRead(s2)
	if e0 == e2 {
		t.Error("same-channel reads completed simultaneously; bus not shared")
	}
	_ = e0
}

func TestSingleChannelDefault(t *testing.T) {
	if config.Default().Memory.Channels != 1 {
		t.Fatal("Table II default must be one channel")
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	cfg := config.Default()
	cfg.Memory.Scheduler = "frfcfs"
	k := &sim.Kernel{}
	c := New(k, cfg.Memory, policy.Norm())
	// Open a row on bank 0, then queue an older row-miss read and a
	// younger row-hit read while the bank is busy with another read.
	first := c.SubmitRead(lineForBank(0, 1), 0)
	missRead := c.SubmitRead(lineForBank(0, 5000), 1) // different segment
	hitRead := c.SubmitRead(lineForBank(0, 0), 2)     // same segment as first
	c.WaitRead(first)
	dHit, dMiss := c.WaitRead(hitRead), c.WaitRead(missRead)
	if dHit >= dMiss {
		t.Errorf("FR-FCFS did not prefer the row hit: hit done %d, miss done %d", dHit, dMiss)
	}
	// Under plain FCFS the older miss goes first.
	k2 := &sim.Kernel{}
	c2 := New(k2, config.Default().Memory, policy.Norm())
	f := c2.SubmitRead(lineForBank(0, 1), 0)
	m := c2.SubmitRead(lineForBank(0, 5000), 1)
	h := c2.SubmitRead(lineForBank(0, 0), 2)
	c2.WaitRead(f)
	if c2.WaitRead(h) <= c2.WaitRead(m) {
		t.Error("FCFS served the younger request first")
	}
}
