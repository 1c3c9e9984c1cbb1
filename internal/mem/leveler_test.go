package mem

import (
	"testing"

	"mellow/internal/config"
	"mellow/internal/policy"
	"mellow/internal/sim"
	"mellow/internal/wear"
)

// ctlWithLeveler builds a controller with the named backend, tightening
// the remap intervals so short tests actually trigger migrations.
func ctlWithLeveler(t *testing.T, backend string) (*sim.Kernel, *Controller) {
	t.Helper()
	cfg := config.Default()
	cfg.Memory.WearLeveler = backend
	cfg.Memory.WolframSwapPeriod = 10
	cfg.Memory.SoftWearPageBlocks = 4
	cfg.Memory.SoftWearEpochWrites = 32
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	k := &sim.Kernel{}
	return k, New(k, cfg.Memory, policy.Norm())
}

// TestBackendSelection checks every configured backend actually drives
// the controller's per-bank mapping and reports itself by name.
func TestBackendSelection(t *testing.T) {
	for _, backend := range wear.Backends() {
		_, c := ctlWithLeveler(t, backend)
		if got := c.Leveler(0).Name(); got != backend {
			t.Errorf("configured %q, controller built %q", backend, got)
		}
		if c.Leveler(0) == c.Leveler(1) {
			t.Errorf("%s: banks share one leveler instance", backend)
		}
		if got := c.levelEff; got != c.Leveler(0).Efficiency() {
			t.Errorf("%s: cached efficiency %v != backend's %v", backend, got, c.Leveler(0).Efficiency())
		}
	}
}

// TestBackendRemapsCharge drives one bank hard enough that every backend
// performs migrations, and checks the copy writes land in the snapshot
// (GapMoves), the wear meters and the energy account — remaps are never
// free.
func TestBackendRemapsCharge(t *testing.T) {
	for _, backend := range wear.Backends() {
		t.Run(backend, func(t *testing.T) {
			k, c := ctlWithLeveler(t, backend)
			for n := 1; n <= 300; n++ {
				c.SubmitWrite(lineForBank(3, n), k.Now())
				k.AdvanceTo(k.Now() + sim.NS(500))
			}
			c.Drain()
			s := c.Snapshot()
			if s.GapMoves == 0 {
				t.Fatal("no migration writes recorded")
			}
			moves := c.Leveler(3).Moves()
			if moves == 0 {
				t.Fatal("leveler reports zero remap operations")
			}
			if s.GapMoves < moves {
				t.Errorf("snapshot GapMoves %d < leveler remap ops %d", s.GapMoves, moves)
			}
			if got := c.Meter(3).Snapshot().GapWrites; got != s.GapMoves {
				t.Errorf("meter gap writes %d != snapshot GapMoves %d", got, s.GapMoves)
			}
		})
	}
}

// TestBackendCopyCostOccupiesBank pins the remap cost model: each copy
// write holds the bank for tRCD plus one normal pulse, so a
// multi-block page swap (softwear) keeps the bank busy proportionally
// longer than a single Start-Gap move.
func TestBackendCopyCostOccupiesBank(t *testing.T) {
	busyAfter := func(backend string, writes int) sim.Tick {
		cfg := config.Default()
		cfg.Memory.WearLeveler = backend
		cfg.Memory.WolframSwapPeriod = 1000000
		cfg.Memory.SoftWearPageBlocks = 8
		cfg.Memory.SoftWearEpochWrites = writes
		cfg.Memory.StartGapPsi = writes
		k := &sim.Kernel{}
		c := New(k, cfg.Memory, policy.Norm())
		for n := 1; n <= writes; n++ {
			c.SubmitWrite(lineForBank(0, n), k.Now())
			c.Drain()
		}
		return c.banks[0].freeAt - k.Now()
	}
	// Start-Gap's last write triggers one copy; SoftWear's epoch close
	// swaps an 8-block page (16 copies). Same demand traffic, so any
	// extra busy time is remap cost.
	sg := busyAfter("startgap", 32)
	sw := busyAfter("softwear", 32)
	if sw <= sg {
		t.Errorf("softwear page swap busy %d ticks <= startgap single move %d ticks", sw, sg)
	}
}

// TestBackendDeterminism runs the identical workload twice per backend
// and requires identical snapshots — WoLFRaM's randomized swap partners
// come from a per-bank seeded stream, not global state.
func TestBackendDeterminism(t *testing.T) {
	for _, backend := range wear.Backends() {
		run := func() Snapshot {
			k, c := ctlWithLeveler(t, backend)
			for i := 0; i < 400; i++ {
				c.SubmitWrite(lineForBank(i%16, i+1), k.Now())
				if i%6 == 0 {
					r := c.SubmitRead(lineForBank((i+5)%16, i+3), k.Now())
					c.WaitRead(r)
				}
				k.AdvanceTo(k.Now() + sim.NS(200))
			}
			c.Drain()
			return c.Snapshot()
		}
		a, b := run(), run()
		if a.Counters != b.Counters || a.EnergyPJ != b.EnergyPJ || a.MaxBankDamage != b.MaxBankDamage {
			t.Errorf("%s: backend not deterministic:\n%+v\n%+v", backend, a.Counters, b.Counters)
		}
	}
}

// TestBackendLifetimeUsesOwnEfficiency checks the §V snapshot lifetime
// is computed with the active backend's leveling efficiency, not the
// Start-Gap config field.
func TestBackendLifetimeUsesOwnEfficiency(t *testing.T) {
	lifetime := func(backend string) (years, eff float64) {
		cfg := config.Default()
		cfg.Memory.WearLeveler = backend
		// Make remaps impossible so every backend sees identical damage.
		cfg.Memory.StartGapPsi = 1 << 30
		cfg.Memory.WolframSwapPeriod = 1 << 30
		cfg.Memory.SoftWearEpochWrites = 1 << 30
		k := &sim.Kernel{}
		c := New(k, cfg.Memory, policy.Norm())
		for n := 1; n <= 20; n++ {
			c.SubmitWrite(lineForBank(0, n), k.Now())
			k.AdvanceTo(k.Now() + sim.NS(500))
		}
		k.AdvanceTo(sim.NS(1e6))
		return c.Snapshot().LifetimeYears, c.Leveler(0).Efficiency()
	}
	sgY, sgE := lifetime("startgap")
	wfY, wfE := lifetime("wolfram")
	swY, swE := lifetime("softwear")
	if sgE == wfE || wfE == swE {
		t.Fatalf("efficiencies not distinct: %v %v %v", sgE, wfE, swE)
	}
	// Identical damage ⇒ lifetime ratios equal efficiency ratios.
	if got, want := wfY/sgY, wfE/sgE; !approxEqual(got, want) {
		t.Errorf("wolfram/startgap lifetime ratio %v, want %v", got, want)
	}
	if got, want := swY/sgY, swE/sgE; !approxEqual(got, want) {
		t.Errorf("softwear/startgap lifetime ratio %v, want %v", got, want)
	}
}

func approxEqual(a, b float64) bool { return a/b > 0.999 && a/b < 1.001 }
