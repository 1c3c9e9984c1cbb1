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

// TotalWrites returns completed demand+eager writes across modes.
func (s Snapshot) TotalWrites() uint64 {
	var n uint64
	for _, v := range s.WritesByMode {
		n += v
	}
	return n
}

// SlowWrites returns completed slow-mode writes.
func (s Snapshot) SlowWrites() uint64 {
	var n uint64
	for i := 1; i < len(s.WritesByMode); i++ {
		n += s.WritesByMode[i]
	}
	return n
}

// TotalCancelled returns aborted write attempts.
func (s Snapshot) TotalCancelled() uint64 {
	var n uint64
	for _, v := range s.CancelledByMode {
		n += v
	}
	return n
}

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
		s.BankAttempts += d.TotalAttempts()
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
	s.BankAttempts += c.counts.Reads
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

// ProbeCounters is the controller's cumulative traffic-and-wear view,
// cheap enough to snapshot from an epoch probe: counter copies plus one
// pass over the (typically 16) banks, with no queue walks and no
// mutation of simulation state.
type ProbeCounters struct {
	Counters
	// WritesFast / WritesSlow split completed writes by pulse speed
	// (normal vs any slow mode), cumulative since the last ResetStats'
	// epoch base — the engine diffs consecutive snapshots.
	WritesFast uint64
	WritesSlow uint64
	// MaxBankDamage is the worst bank's cumulative wear in normal-write
	// units (never reset: Wear Quota needs damage from time zero).
	MaxBankDamage float64
	// Queue occupancy and drain mode at the probe instant.
	ReadQueue  int
	WriteQueue int
	EagerQueue int
	Draining   bool
}

// ProbeCounters snapshots the controller for an epoch probe.
func (c *Controller) ProbeCounters() ProbeCounters {
	p := ProbeCounters{
		Counters:   c.counts,
		ReadQueue:  c.readQ.size,
		WriteQueue: c.writeQ.size,
		EagerQueue: c.eagerQ.size,
		Draining:   c.draining,
	}
	for b := range c.banks {
		m := c.meters[b]
		p.MaxBankDamage = max(p.MaxBankDamage, m.Damage())
		p.WritesFast += m.TotalCompleted() - m.SlowCompleted()
		p.WritesSlow += m.SlowCompleted()
	}
	return p
}

// Delta returns the monotone counters accumulated since prev; the
// instantaneous fields (queues, drain mode, damage) keep p's values.
func (p ProbeCounters) Delta(prev ProbeCounters) ProbeCounters {
	d := p
	d.Reads -= prev.Reads
	d.RowHits -= prev.RowHits
	d.RowMisses -= prev.RowMisses
	d.Forwarded -= prev.Forwarded
	d.WriteQueued -= prev.WriteQueued
	d.EagerQueued -= prev.EagerQueued
	d.Coalesced -= prev.Coalesced
	d.WritesDone -= prev.WritesDone
	d.EagerDone -= prev.EagerDone
	d.Cancellations -= prev.Cancellations
	d.Pauses -= prev.Pauses
	d.Drains -= prev.Drains
	d.WritesFast -= prev.WritesFast
	d.WritesSlow -= prev.WritesSlow
	return d
}

// CollectMetrics publishes the controller's counters, queue occupancy,
// read-latency distribution and per-bank wear (via the wear meters)
// into a per-run metrics registry. Read-only: plain field reads plus
// one pass over the banks, exactly like ProbeCounters — collecting can
// never perturb event order.
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

	var modes [4]uint64
	var cancelled [4]uint64
	for b := range c.banks {
		m := c.meters[b]
		for i := range modes {
			modes[i] += m.Writes(nvm.WriteMode(i))
			cancelled[i] += m.Cancelled(nvm.WriteMode(i))
		}
	}
	for i := range modes {
		mode := fmt.Sprintf("%dx", 1<<uint(i))
		g.CounterL("sim_mem_writes_by_mode_total", "Completed writes by pulse slowdown.", "mode", mode, modes[i])
		g.CounterL("sim_mem_cancelled_by_mode_total", "Aborted write attempts by pulse slowdown.", "mode", mode, cancelled[i])
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
