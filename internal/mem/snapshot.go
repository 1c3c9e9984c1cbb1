package mem

import (
	"encoding/json"
	"fmt"
	"math"

	"mellow/internal/energy"
	"mellow/internal/metrics"
	"mellow/internal/nvm"
	"mellow/internal/policy"
	"mellow/internal/sim"
	"mellow/internal/stats"
	"mellow/internal/wear"
)

// Snapshot is the controller's measurement view over the window since
// the last ResetStats.
type Snapshot struct {
	Counters
	// Window is the measurement window length.
	Window sim.Tick
	// WritesByMode / CancelledByMode aggregate bank write traffic.
	WritesByMode    [4]uint64
	CancelledByMode [4]uint64
	// GapMoves counts wear-leveling migration writes (gap moves under
	// Start-Gap; copy writes under the other Leveler backends).
	GapMoves uint64
	// BankAttempts is every request a bank serviced or started: reads,
	// completed writes, cancelled attempts and migrations (Figure 15).
	BankAttempts uint64
	// EnergyPJ is total main-memory energy over the window (Figure 16);
	// Energy carries the per-class breakdown.
	EnergyPJ float64
	Energy   energy.Breakdown
	// DrainFraction is time spent in write-drain mode (Figure 13).
	DrainFraction float64
	// ReadLatency is the distribution of bank-serviced read latencies
	// (arrival to data return), in nanoseconds. Forwarded reads are
	// excluded.
	ReadLatency stats.Histogram
	// BankUtilization per bank, and the average (Figures 3, 12, 18b).
	BankUtilization []float64
	AvgUtilization  float64
	// LifetimeYears is the §V lifetime: min over banks, the active
	// leveler's efficiency applied, assuming the workload repeats
	// (Figures 2, 11).
	LifetimeYears float64
	// MaxBankDamage is the worst bank's damage (normal-write units).
	MaxBankDamage float64
}

// MarshalJSON encodes the snapshot for the API. A window with no
// completed writes projects an infinite lifetime, which JSON cannot
// carry as a number; it is encoded as null.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type plain Snapshot
	w := struct {
		plain
		LifetimeYears any `json:"LifetimeYears"`
	}{plain: plain(s), LifetimeYears: s.LifetimeYears}
	if math.IsInf(s.LifetimeYears, 0) || math.IsNaN(s.LifetimeYears) {
		w.LifetimeYears = nil
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire form; a null lifetime is +Inf.
func (s *Snapshot) UnmarshalJSON(b []byte) error {
	type plain Snapshot
	w := struct {
		*plain
		LifetimeYears *float64 `json:"LifetimeYears"`
	}{plain: (*plain)(s)}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.LifetimeYears != nil {
		s.LifetimeYears = *w.LifetimeYears
	} else {
		s.LifetimeYears = math.Inf(1)
	}
	return nil
}

// writes views the window's bank write traffic as a meter snapshot, so
// its aggregates are wear's.
func (s Snapshot) writes() wear.MeterSnapshot {
	return wear.MeterSnapshot{Writes: s.WritesByMode, Cancelled: s.CancelledByMode, GapWrites: s.GapMoves}
}

// TotalWrites returns completed demand+eager writes across modes.
func (s Snapshot) TotalWrites() uint64 { return s.writes().TotalCompleted() }

// SlowWrites returns completed slow-mode writes.
func (s Snapshot) SlowWrites() uint64 { return s.writes().SlowCompleted() }

// TotalCancelled returns aborted write attempts.
func (s Snapshot) TotalCancelled() uint64 { return s.writes().TotalCancelled() }

// meterBase holds the per-bank wear baseline captured at ResetStats.
type meterBase []wear.MeterSnapshot

// Snapshot captures measurements at the current memory clock.
func (c *Controller) Snapshot() Snapshot {
	now := c.k.Now()
	s := Snapshot{
		Counters: c.counts,
		Window:   now - c.statsStart,
		Energy:   c.energy.Sub(c.energyBase),
	}
	s.EnergyPJ = s.Energy.TotalPJ()
	s.DrainFraction = c.drainMeter.Fraction(now)
	s.ReadLatency = c.readLat.Sub(c.readLatBase)
	s.BankUtilization = make([]float64, len(c.banks))
	sum := 0.0
	maxDamage := 0.0
	lifetime := 0.0
	first := true
	for b := range c.banks {
		u := c.banks[b].busy.Utilization(now)
		s.BankUtilization[b] = u
		sum += u
		d := c.meters[b].Snapshot().Sub(c.base[b])
		for m := range d.Writes {
			s.WritesByMode[m] += d.Writes[m]
			s.CancelledByMode[m] += d.Cancelled[m]
		}
		s.GapMoves += d.GapWrites
		if d.Damage > maxDamage {
			maxDamage = d.Damage
		}
		y := wear.LifetimeYears(d.Damage, c.blocksPerBank, c.cfg.Device.BaseEndurance,
			c.levelEff, s.Window)
		if first || y < lifetime {
			lifetime = y
			first = false
		}
	}
	s.BankAttempts = s.writes().TotalAttempts() + c.counts.Reads
	s.AvgUtilization = sum / float64(len(c.banks))
	s.MaxBankDamage = maxDamage
	s.LifetimeYears = lifetime
	return s
}

// ResetStats starts a fresh measurement window (end of warmup). Wear
// quota state and cache/bank contents are preserved; only measurements
// reset.
func (c *Controller) ResetStats() {
	now := c.k.Now()
	c.statsStart = now
	c.counts = Counters{}
	c.energyBase = c.energy
	c.readLatBase = c.readLat
	c.drainMeter.Reset(now)
	if c.base == nil {
		c.base = make(meterBase, len(c.banks))
	}
	for b := range c.banks {
		c.banks[b].busy.Reset(now)
		c.base[b] = c.meters[b].Snapshot()
	}
}

// Counters returns the event counts since the last ResetStats.
func (c *Controller) Counters() Counters { return c.counts }

// QueueDepths returns the read, write and eager queue occupancy.
func (c *Controller) QueueDepths() (read, write, eager int) {
	return c.readQ.size, c.writeQ.size, c.eagerQ.size
}

// Wear sums the banks' wear meters since construction (never reset:
// Wear Quota needs damage from time zero) and returns the worst bank's
// damage beside them.
func (c *Controller) Wear() (sum wear.MeterSnapshot, maxDamage float64) {
	return wear.Totals(c.meters)
}

// CollectMetrics publishes the controller's counters, queue occupancy,
// read-latency distribution and per-bank wear (via the wear meters)
// into a per-run metrics registry. Read-only: plain field reads plus
// passes over the banks' meters — collecting can never perturb event
// order.
func (c *Controller) CollectMetrics(g *metrics.Gatherer) {
	g.Counter("sim_mem_reads_total", "Reads serviced by banks.", c.counts.Reads)
	g.Counter("sim_mem_row_hits_total", "Row-buffer hits.", c.counts.RowHits)
	g.Counter("sim_mem_row_misses_total", "Row-buffer misses.", c.counts.RowMisses)
	g.Counter("sim_mem_forwarded_total", "Reads served from queued write data.", c.counts.Forwarded)
	g.Counter("sim_mem_write_queued_total", "Write-backs accepted into the write queue.", c.counts.WriteQueued)
	g.Counter("sim_mem_eager_queued_total", "Eager write-backs accepted.", c.counts.EagerQueued)
	g.Counter("sim_mem_coalesced_total", "Write-backs merged into an existing queue entry.", c.counts.Coalesced)
	g.Counter("sim_mem_writes_done_total", "Demand writes completed.", c.counts.WritesDone)
	g.Counter("sim_mem_eager_done_total", "Eager writes completed.", c.counts.EagerDone)
	g.Counter("sim_mem_cancellations_total", "Write attempts aborted by write cancellation.", c.counts.Cancellations)
	g.Counter("sim_mem_pauses_total", "Write pulses suspended by reads (write pausing).", c.counts.Pauses)
	g.Counter("sim_mem_drains_total", "Write drain-mode entries.", c.counts.Drains)

	sum, _ := c.Wear()
	for i := range sum.Writes {
		mode := fmt.Sprintf("%dx", 1<<uint(i))
		g.CounterL("sim_mem_writes_by_mode_total", "Completed writes by pulse slowdown.", "mode", mode, sum.Writes[i])
		g.CounterL("sim_mem_cancelled_by_mode_total", "Aborted write attempts by pulse slowdown.", "mode", mode, sum.Cancelled[i])
	}

	g.GaugeL("sim_mem_queue_depth", "Controller queue occupancy.", "queue", "eager", float64(c.eagerQ.size))
	g.GaugeL("sim_mem_queue_depth", "Controller queue occupancy.", "queue", "read", float64(c.readQ.size))
	g.GaugeL("sim_mem_queue_depth", "Controller queue occupancy.", "queue", "write", float64(c.writeQ.size))
	draining := 0.0
	if c.draining {
		draining = 1
	}
	g.Gauge("sim_mem_draining", "Whether the controller is in write-drain mode (0/1).", draining)
	g.Histogram("sim_mem_read_latency_seconds",
		"Bank-serviced read latency (arrival to data return).", 1e-9, c.readLat)

	wear.CollectMeters(g, c.meters)
	wear.CollectLevelers(g, c.levs)
}

// Draining reports whether the controller is in write-drain mode.
func (c *Controller) Draining() bool { return c.draining }

// Quota exposes a bank's quota state (tests).
func (c *Controller) Quota(bank int) *wear.Quota { return c.quotas[bank] }

// Meter exposes a bank's wear meter (tests).
func (c *Controller) Meter(bank int) *wear.Meter { return c.meters[bank] }

// Leveler exposes a bank's wear-leveling backend (tests).
func (c *Controller) Leveler(bank int) wear.Leveler { return c.levs[bank] }

// Spec returns the active policy (a value copy).
func (c *Controller) Spec() policy.Spec { return c.spec }

// Device returns the device model in use.
func (c *Controller) Device() nvm.Device { return c.cfg.Device }
