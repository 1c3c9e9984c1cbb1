package wear

import (
	"fmt"
	"math"

	"mellow/internal/metrics"
	"mellow/internal/nvm"
	"mellow/internal/policy"
	"mellow/internal/sim"
)

// Meter accumulates wear for one bank. Damage is measured in
// normal-write equivalents: a normal write adds 1.0 and an N×-slow write
// adds N^-ExpoFactor (see nvm.Device.Damage), so Endurance_blk units of
// damage exhaust one block. Its counts are one MeterSnapshot, so every
// aggregate is defined once, on the snapshot.
type Meter struct{ s MeterSnapshot }

// Record accounts one completed write attempt in the given mode.
func (m *Meter) Record(mode nvm.WriteMode, damage float64) {
	m.s.Damage += damage
	m.s.Writes[mode]++
}

// RecordCancelled accounts an aborted write attempt. The attempt still
// wears the cell (§III: write cancellation "comes at a penalty to memory
// lifetime due to the multiple write attempts").
func (m *Meter) RecordCancelled(mode nvm.WriteMode, damage float64) {
	m.s.Damage += damage
	m.s.Cancelled[mode]++
}

// RecordGapMove accounts a Start-Gap migration write (always a normal
// write in this model).
func (m *Meter) RecordGapMove() {
	m.s.Damage += 1.0
	m.s.GapWrites++
}

// Damage returns total accumulated damage in normal-write equivalents.
func (m *Meter) Damage() float64 { return m.s.Damage }

// Snapshot captures the meter's current counts.
func (m *Meter) Snapshot() MeterSnapshot { return m.s }

// MeterSnapshot is a copyable view of a Meter, used to diff measurement
// windows: the Wear Quota logic needs cumulative damage from time zero,
// while lifetime and traffic figures use the post-warmup window only.
type MeterSnapshot struct {
	Damage    float64
	Writes    [4]uint64 // completed writes, indexed by nvm.WriteMode
	Cancelled [4]uint64 // aborted write attempts, indexed by mode
	GapWrites uint64    // wear-leveling migration writes
}

// Sub returns the counts accumulated since base.
func (s MeterSnapshot) Sub(base MeterSnapshot) MeterSnapshot {
	d := MeterSnapshot{Damage: s.Damage - base.Damage, GapWrites: s.GapWrites - base.GapWrites}
	for i := range s.Writes {
		d.Writes[i] = s.Writes[i] - base.Writes[i]
		d.Cancelled[i] = s.Cancelled[i] - base.Cancelled[i]
	}
	return d
}

// Totals sums the meters' current counts over banks, Damage included,
// and returns the worst single meter's damage beside them: the quantity
// lifetime and Wear Quota read.
func Totals(meters []*Meter) (sum MeterSnapshot, maxDamage float64) {
	for _, m := range meters {
		sum.Damage += m.s.Damage
		sum.GapWrites += m.s.GapWrites
		for i := range sum.Writes {
			sum.Writes[i] += m.s.Writes[i]
			sum.Cancelled[i] += m.s.Cancelled[i]
		}
		maxDamage = max(maxDamage, m.s.Damage)
	}
	return sum, maxDamage
}

// TotalAttempts returns completed + cancelled + migration writes — the
// request count a bank actually serviced (Figure 15's unit).
func (s MeterSnapshot) TotalAttempts() uint64 {
	var n uint64
	for i := range s.Writes {
		n += s.Writes[i] + s.Cancelled[i]
	}
	return n + s.GapWrites
}

// TotalCompleted returns completed writes across modes.
func (s MeterSnapshot) TotalCompleted() uint64 {
	var n uint64
	for i := range s.Writes {
		n += s.Writes[i]
	}
	return n
}

// TotalCancelled sums aborted attempts across modes.
func (s MeterSnapshot) TotalCancelled() uint64 {
	var n uint64
	for i := range s.Cancelled {
		n += s.Cancelled[i]
	}
	return n
}

// SlowCompleted sums completed slow-mode writes.
func (s MeterSnapshot) SlowCompleted() uint64 {
	var n uint64
	for i := 1; i < len(s.Writes); i++ {
		n += s.Writes[i]
	}
	return n
}

// Quota implements the Wear Quota accounting of §IV-C for one bank.
//
// Execution is divided into sample periods of T_sample. A bank may incur
// at most WearBound_bank damage per period on average; if cumulative
// damage exceeds periods×bound, only slow writes may issue in the coming
// period.
type Quota struct {
	bound   float64 // WearBound_bank per period, in damage units
	periods uint64  // completed periods
	exceed  bool    // decision for the current period
}

// NewQuota sizes the per-period wear bound:
//
//	WearBound_blk  = Endur_blk · T_sample/T_lifetime
//	WearBound_bank = BlkNum_bank · WearBound_blk · Ratio_quota
//
// Damage is in normal-write equivalents, so Endur_blk contributes its
// write count directly.
func NewQuota(blocksPerBank int64, enduranceBlk float64, samplePeriod sim.Tick,
	target policy.Years, ratio float64) *Quota {
	frac := float64(samplePeriod) / float64(target.Ticks())
	return &Quota{bound: float64(blocksPerBank) * enduranceBlk * frac * ratio}
}

// StartPeriod is called at each sample-period boundary with the bank's
// cumulative damage; it computes ExceedQuota for the period just begun
// and reports whether the decision flipped relative to the previous
// period (the event execution tracing records).
//
// The first call opens period 0: Num_previous_periods is zero, so the
// quota can never start exceeded — §IV-C's budget is damage per
// *completed* period, and with no history there is nothing to have
// overspent. The guard matters when a caller seeds period 0 with
// damage carried in from outside the quota window (e.g. a warmup
// phase): without it the formula would flag ExceedQuota > 0 on history
// the quota never granted a budget for.
func (q *Quota) StartPeriod(cumulativeDamage float64) (flipped bool) {
	// ExceedQuota = ΣWear_bank − WearBound_bank × Num_previous_periods.
	// q.periods counts completed periods here (it increments below), so
	// the subtracted term is never negative: periods is unsigned and
	// only ever grows.
	was := q.exceed
	q.exceed = q.periods > 0 && cumulativeDamage-q.bound*float64(q.periods) > 0
	q.periods++
	return q.exceed != was
}

// Exceeded reports whether only slow writes may issue this period.
func (q *Quota) Exceeded() bool { return q.exceed }

// Periods returns the number of periods started.
func (q *Quota) Periods() uint64 { return q.periods }

// LifetimeYears estimates memory lifetime from one bank's damage over a
// simulated window, per §V: the workload repeats cyclically and the bank
// fails when its most-worn block is exhausted. With Start-Gap leveling,
// within-bank wear is a factor eff from uniform, so
//
//	lifetime = T_sim · Blocks · Endur_blk · eff / Damage.
//
// A bank with zero damage never fails (+Inf).
func LifetimeYears(damage float64, blocks int64, enduranceBlk, eff float64, window sim.Tick) float64 {
	if damage <= 0 {
		return math.Inf(1)
	}
	capacity := float64(blocks) * enduranceBlk * eff
	lifetimeSeconds := window.Seconds() * capacity / damage
	return lifetimeSeconds / policy.SecondsPerYear
}

// CollectMeters publishes per-bank wear into a per-run metrics
// registry: damage gauges by bank, plus totals for migration writes and
// the worst bank. Read-only over the meters, like every collector.
func CollectMeters(g *metrics.Gatherer, meters []*Meter) {
	for i, m := range meters {
		g.GaugeL("sim_wear_bank_damage", "Cumulative wear by bank, in normal-write units (never reset).",
			"bank", fmt.Sprintf("%02d", i), m.Damage())
	}
	sum, maxDamage := Totals(meters)
	g.Counter("sim_wear_gap_moves_total", "Wear-leveling migration writes across banks.", sum.GapWrites)
	g.Gauge("sim_wear_max_bank_damage", "Worst bank's cumulative damage in normal-write units.", maxDamage)
}

// CollectLevelers publishes the leveling backend's activity into a
// per-run metrics registry, scoped by backend so runs under different
// levelers expose distinguishable sim_wear_* series. Read-only.
func CollectLevelers(g *metrics.Gatherer, levs []Leveler) {
	if len(levs) == 0 {
		return
	}
	backend := levs[0].Name()
	var moves uint64
	for _, lv := range levs {
		moves += lv.Moves()
	}
	g.CounterL("sim_wear_remap_ops_total", "Wear-leveling remap operations across banks (gap moves, block swaps, page swaps).",
		"backend", backend, moves)
	g.GaugeL("sim_wear_leveler_efficiency", "Assumed fraction of ideal within-bank leveling for the active backend.",
		"backend", backend, levs[0].Efficiency())
}
