package wear

import (
	"math"
	"testing"
	"testing/quick"

	"mellow/internal/nvm"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/sim"
)

func TestStartGapMapBijective(t *testing.T) {
	const n = 257
	sg := NewStartGap(n, 10)
	for step := 0; step < 5000; step++ {
		if step%97 == 0 { // periodically verify the full mapping
			seen := make(map[int64]bool, n)
			for l := int64(0); l < n; l++ {
				p := sg.Map(l)
				if p < 0 || p > n {
					t.Fatalf("physical %d out of range [0,%d]", p, n)
				}
				if seen[p] {
					t.Fatalf("mapping not injective at step %d: physical %d repeated", step, p)
				}
				seen[p] = true
			}
		}
		sg.OnWrite()
	}
}

func TestStartGapMovesEveryPsi(t *testing.T) {
	sg := NewStartGap(100, 7)
	writes := 0
	for i := 0; i < 700; i++ {
		moved, _ := sg.OnWrite()
		writes++
		if moved && writes%7 != 0 {
			t.Fatalf("gap moved after %d writes, want multiples of 7", writes)
		}
	}
	if sg.Moves() != 100 {
		t.Errorf("moves = %d, want 100", sg.Moves())
	}
}

func TestStartGapRotation(t *testing.T) {
	// After n+1 gap moves the start register must have advanced once:
	// every logical block has shifted by one physical position.
	const n = 8
	sg := NewStartGap(n, 1)
	before := sg.Map(0)
	for i := 0; i < n+1; i++ {
		sg.OnWrite()
	}
	after := sg.Map(0)
	if after == before {
		t.Errorf("logical 0 did not move after a full gap rotation: %d -> %d", before, after)
	}
}

func TestStartGapRewrittenBlockValid(t *testing.T) {
	sg := NewStartGap(50, 3)
	for i := 0; i < 1000; i++ {
		moved, rw := sg.OnWrite()
		if !moved && rw != -1 {
			t.Fatal("rewritten set without a move")
		}
		if moved && rw != -1 && (rw < 0 || rw > 50) {
			t.Fatalf("rewritten block %d out of range", rw)
		}
	}
}

// TestStartGapLevelsHotspot is the key leveling property: a single
// logical hot block must spread its wear over many physical blocks.
func TestStartGapLevelsHotspot(t *testing.T) {
	const n, psi = 64, 4
	sg := NewStartGap(n, psi)
	wearPerPhys := make([]int, n+1)
	const writes = 64 * 4 * 40 // many full rotations
	for i := 0; i < writes; i++ {
		wearPerPhys[sg.Map(0)]++ // always write logical block 0
		if moved, rw := sg.OnWrite(); moved && rw >= 0 {
			wearPerPhys[rw]++
		}
	}
	max, nonzero := 0, 0
	for _, w := range wearPerPhys {
		if w > max {
			max = w
		}
		if w > 0 {
			nonzero++
		}
	}
	if nonzero < n {
		t.Errorf("hotspot wear touched only %d/%d physical blocks", nonzero, n+1)
	}
	// Without leveling one block would take all `writes` wear. Demand a
	// large spread factor.
	if max > writes/8 {
		t.Errorf("max per-block wear %d of %d writes — leveling ineffective", max, writes)
	}
}

func TestStartGapQuickRandomTraffic(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		const n = 31
		sg := NewStartGap(n, 5)
		for i := 0; i < 2000; i++ {
			p := sg.Map(int64(src.Uintn(n)))
			if p < 0 || p > n {
				return false
			}
			sg.OnWrite()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStartGapPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewStartGap(0, 1) },
		func() { NewStartGap(10, 0) },
		func() { NewStartGap(10, 5).Map(10) },
		func() { NewStartGap(10, 5).Map(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMeterAccounting(t *testing.T) {
	dev := nvm.DefaultDevice()
	var m Meter
	m.Record(nvm.WriteNormal, dev.Damage(nvm.WriteNormal))
	m.Record(nvm.WriteSlow30, dev.Damage(nvm.WriteSlow30))
	m.RecordCancelled(nvm.WriteSlow30, dev.Damage(nvm.WriteSlow30))
	m.RecordGapMove()
	wantDamage := 1.0 + 1.0/9.0 + 1.0/9.0 + 1.0
	if math.Abs(m.Damage()-wantDamage) > 1e-12 {
		t.Errorf("damage = %v, want %v", m.Damage(), wantDamage)
	}
	s := m.Snapshot()
	if s.Writes[nvm.WriteNormal] != 1 || s.Writes[nvm.WriteSlow30] != 1 {
		t.Error("completed write counts wrong")
	}
	if s.Cancelled[nvm.WriteSlow30] != 1 {
		t.Error("cancelled count wrong")
	}
	if s.TotalAttempts() != 4 {
		t.Errorf("attempts = %d, want 4", s.TotalAttempts())
	}
	if s.TotalCompleted() != 2 {
		t.Errorf("completed = %d, want 2", s.TotalCompleted())
	}
	if s.SlowCompleted() != 1 {
		t.Errorf("slow completed = %d, want 1", s.SlowCompleted())
	}

	var other Meter
	other.RecordGapMove()
	other.RecordGapMove()
	other.RecordGapMove()
	sum, worst := Totals([]*Meter{&m, &other})
	if sum.TotalAttempts() != 7 || sum.GapWrites != 4 || sum.Writes != s.Writes {
		t.Errorf("totals = %+v, want 7 attempts, 4 gap writes and m's writes", sum)
	}
	if worst != 3 || sum.Damage != m.Damage()+3 {
		t.Errorf("worst/summed damage = %v/%v, want 3/%v", worst, sum.Damage, m.Damage()+3)
	}
}

func TestQuotaBoundFormula(t *testing.T) {
	// 4 GB / 16 banks / 64 B = 4 Mi blocks; Endur 5e6; T_sample 500 µs;
	// T_life 8 years; ratio 0.9.
	blocks := int64(4<<30) / 16 / 64
	q := NewQuota(blocks, 5e6, sim.NS(500000), 8, 0.9)
	eightYearsTicks := policy.Years(8).Ticks()
	want := float64(blocks) * 5e6 * float64(sim.NS(500000)) / float64(eightYearsTicks) * 0.9
	if math.Abs(q.Bound()-want)/want > 1e-12 {
		t.Errorf("bound = %v, want %v", q.Bound(), want)
	}
	// Sanity: tens of normal writes per bank per period.
	if q.Bound() < 10 || q.Bound() > 100 {
		t.Errorf("bound = %v, expected tens of writes per period", q.Bound())
	}
}

func TestQuotaExceedLogic(t *testing.T) {
	q := &Quota{bound: 10}
	q.StartPeriod(0) // period 1 begins; no history -> not exceeded
	if q.Exceeded() {
		t.Error("exceeded with no damage")
	}
	q.StartPeriod(25) // after period 1: damage 25 > 10*1 -> slow-only
	if !q.Exceeded() {
		t.Error("not exceeded with 25 damage after 1 period (bound 10)")
	}
	q.StartPeriod(25) // after period 2: 25 > 20 -> still exceeded
	if !q.Exceeded() {
		t.Error("not exceeded with 25 damage after 2 periods")
	}
	q.StartPeriod(28) // after period 3: 28 < 30 -> recovered
	if q.Exceeded() {
		t.Error("exceeded with 28 damage after 3 periods (quota 30)")
	}
	if q.Periods() != 4 {
		t.Errorf("periods = %d, want 4", q.Periods())
	}
}

// Property: a bank whose per-period damage never exceeds the bound is
// never flagged; one that always doubles the bound is flagged from the
// second period on.
func TestQuotaQuickSteadyRates(t *testing.T) {
	f := func(b8 uint8) bool {
		bound := 1 + float64(b8)
		under := &Quota{bound: bound}
		over := &Quota{bound: bound}
		okUnder, okOver := true, true
		for p := 1; p <= 50; p++ {
			under.StartPeriod(0.9 * bound * float64(p-1))
			over.StartPeriod(2.0 * bound * float64(p-1))
			if under.Exceeded() {
				okUnder = false
			}
			if p >= 2 && !over.Exceeded() {
				okOver = false
			}
		}
		return okUnder && okOver
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLifetimeYears(t *testing.T) {
	// One bank of 1000 blocks, endurance 100, perfect leveling. Damage
	// of 1000*100 over a 1-second window -> lifetime exactly 1 second.
	window := sim.NS(1e9)
	got := LifetimeYears(1000*100, 1000, 100, 1.0, window)
	want := 1.0 / policy.SecondsPerYear
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("lifetime = %v years, want %v", got, want)
	}
	if !math.IsInf(LifetimeYears(0, 1000, 100, 1.0, window), 1) {
		t.Error("zero damage must yield infinite lifetime")
	}
	// Efficiency scales lifetime linearly.
	half := LifetimeYears(1000*100, 1000, 100, 0.5, window)
	if math.Abs(half-want/2)/want > 1e-9 {
		t.Errorf("eff=0.5 lifetime = %v, want %v", half, want/2)
	}
}

func TestSystemLifetimeIsMin(t *testing.T) {
	dev := nvm.DefaultDevice()
	hot, cold := &Meter{}, &Meter{}
	for i := 0; i < 100; i++ {
		hot.Record(nvm.WriteNormal, dev.Damage(nvm.WriteNormal))
	}
	cold.Record(nvm.WriteSlow30, dev.Damage(nvm.WriteSlow30))
	window := sim.NS(1e6)
	sys := SystemLifetimeYears([]*Meter{hot, cold}, 1000, 5e6, 0.9, window)
	hotOnly := LifetimeYears(hot.Damage(), 1000, 5e6, 0.9, window)
	if sys != hotOnly {
		t.Errorf("system lifetime %v != hottest bank %v", sys, hotOnly)
	}
}

// Property: slow writes always extend lifetime versus the same number of
// normal writes, by the endurance factor.
func TestQuickSlowWritesExtendLifetime(t *testing.T) {
	dev := nvm.DefaultDevice()
	f := func(n16 uint16) bool {
		n := uint64(n16)%1000 + 1
		norm, slow := &Meter{}, &Meter{}
		for i := uint64(0); i < n; i++ {
			norm.Record(nvm.WriteNormal, dev.Damage(nvm.WriteNormal))
			slow.Record(nvm.WriteSlow30, dev.Damage(nvm.WriteSlow30))
		}
		window := sim.NS(1e6)
		ln := LifetimeYears(norm.Damage(), 100, 5e6, 0.9, window)
		ls := LifetimeYears(slow.Damage(), 100, 5e6, 0.9, window)
		ratio := ls / ln
		return math.Abs(ratio-9.0) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeterSnapshotDiff(t *testing.T) {
	dev := nvm.DefaultDevice()
	var m Meter
	m.Record(nvm.WriteNormal, dev.Damage(nvm.WriteNormal))
	base := m.Snapshot()
	m.Record(nvm.WriteSlow30, dev.Damage(nvm.WriteSlow30))
	m.RecordCancelled(nvm.WriteSlow30, 0.05)
	m.RecordGapMove()
	d := m.Snapshot().Sub(base)
	if d.Writes[nvm.WriteNormal] != 0 || d.Writes[nvm.WriteSlow30] != 1 {
		t.Errorf("writes diff = %v", d.Writes)
	}
	if d.TotalCancelled() != 1 || d.GapWrites != 1 {
		t.Errorf("cancelled/gap diff = %d/%d", d.TotalCancelled(), d.GapWrites)
	}
	if d.TotalAttempts() != 3 {
		t.Errorf("attempts diff = %d, want 3", d.TotalAttempts())
	}
	if d.TotalCompleted() != 1 || d.SlowCompleted() != 1 {
		t.Errorf("completed diff = %d/%d", d.TotalCompleted(), d.SlowCompleted())
	}
	wantDamage := 1.0/9.0 + 0.05 + 1.0
	if math.Abs(d.Damage-wantDamage) > 1e-12 {
		t.Errorf("damage diff = %v, want %v", d.Damage, wantDamage)
	}
}
