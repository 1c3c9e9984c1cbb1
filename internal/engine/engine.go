// Package engine owns the simulation run pipeline: the warmup →
// detailed → drain phasing that used to live inline in core.Run, plus an
// epoch probe that turns a run from an opaque black box into an
// interval-resolved time series. The engine steps a slice of fronts,
// each a private cache hierarchy and core, over one shared kernel and
// memory controller: a single run is one front, a multiprogrammed mix
// one per program. It is the only code that steps a core.
//
// The paper's mechanisms are all periodic — the LLC useless-position
// profiler rotates and Wear Quota re-budgets every 500 µs — so the
// engine samples on the same clock: a sim.Kernel probe fires every
// Options.Epoch ticks of simulated time and differences the counters
// cpu, cache and mem already expose for core.Result into an
// EpochSample. Probes are read-only observers interleaved
// deterministically with the event heap, so a run with an epoch probe
// attached produces bit-identical results to one without, and the
// series itself is deterministic: same (config, policy, workload, seed,
// epoch) → same samples, byte for byte.
//
// A run has one live feed: each closed sample is a plain value, appended
// to the series and handed to Options.OnEpoch. The sample's Progress is
// the run's completion fraction at its boundary, so a live observer's
// progress steps once per epoch; there is no other progress channel.
package engine

import (
	"context"
	"math"
	"strconv"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/cpu"
	"mellow/internal/mem"
	"mellow/internal/metrics"
	"mellow/internal/nvm"
	"mellow/internal/sim"
	"mellow/internal/wear"
	"mellow/internal/xtrace"
)

// Phase names the engine's run phases.
const (
	PhaseWarmup   = "warmup"
	PhaseDetailed = "detailed"
	PhaseDrain    = "drain"
)

// DefaultEpoch is the natural sampling period: 500 µs of simulated time,
// matching the paper's T_sample (profiler rotation and Wear Quota
// period), so one epoch spans exactly one re-profiling interval.
const DefaultEpoch = sim.Tick(1_000_000) // sim.NS(500_000)

// EpochSample is one closed observation interval. Counter fields are
// deltas over the epoch; queue and damage fields are instantaneous at
// the epoch boundary. End ticks are strictly increasing within a run.
type EpochSample struct {
	// Epoch is the zero-based sample index within the run.
	Epoch int `json:"epoch"`
	// Phase is the run phase the epoch closed in.
	Phase string `json:"phase"`
	// Start and End bound the interval in kernel ticks (0.5 ns).
	Start sim.Tick `json:"start_tick"`
	End   sim.Tick `json:"end_tick"`

	// Core progress over the epoch.
	Instructions uint64  `json:"instructions"`
	Cycles       float64 `json:"cycles"`
	IPC          float64 `json:"ipc"`

	// LLC traffic over the epoch.
	LLCHits      uint64 `json:"llc_hits"`
	LLCMisses    uint64 `json:"llc_misses"`
	LLCEvictions uint64 `json:"llc_evictions"`
	EagerIssued  uint64 `json:"eager_issued"`

	// Memory traffic over the epoch.
	Reads         uint64 `json:"reads"`
	WritesFast    uint64 `json:"writes_fast"`
	WritesSlow    uint64 `json:"writes_slow"`
	EagerDone     uint64 `json:"eager_done"`
	Cancellations uint64 `json:"cancellations"`
	Pauses        uint64 `json:"pauses"`
	Drains        uint64 `json:"drains"`

	// Instantaneous controller state at the epoch boundary.
	ReadQueue  int  `json:"read_queue"`
	WriteQueue int  `json:"write_queue"`
	EagerQueue int  `json:"eager_queue"`
	Draining   bool `json:"draining,omitempty"`

	// Cumulative wear at the epoch boundary (normal-write units, never
	// reset — the quantity Wear Quota budgets against).
	MaxBankDamage float64 `json:"max_bank_damage"`

	// Progress is the run's fractional completion at the boundary.
	Progress float64 `json:"progress"`
}

// Options configure an engine run. The zero value observes nothing: no
// probe is registered and the run takes exactly the pre-engine path.
type Options struct {
	// Epoch is the sampling period in ticks. A positive period observes
	// the run: the epoch probe fires every Epoch ticks and Run returns
	// the series. Zero observes nothing.
	Epoch sim.Tick
	// OnEpoch, when set on an observed run, is called synchronously
	// with each closed sample, the same value appended to the series.
	// It is the run's live feed and must not mutate simulation state.
	OnEpoch func(EpochSample)
	// Metrics, when set, receives the run's component collectors: cpu,
	// cache, mem and wear publish their counters into this per-run
	// registry, and a snapshot taken after Run returns is deterministic
	// — collectors are read-only and only evaluated at snapshot time,
	// so attaching a registry never perturbs event order.
	Metrics *metrics.Registry
	// Timeline, when set, records the run's execution timeline: phase
	// and epoch slices from the engine plus the per-bank operation
	// events from the memory controller. Like every observer here it is
	// append-only — a traced run is bit-identical to an untraced one —
	// and it does not by itself enable the epoch probe.
	Timeline *xtrace.Recorder
}

// Front is one program's private front end: its cache hierarchy and the
// core that drives it. A single run has one front; a multiprogrammed mix
// has one per program, all sharing one kernel and one controller.
type Front struct {
	Hier *cache.Hierarchy
	Core *cpu.Core
}

// front is a Front with the engine's bookkeeping for it.
type front struct {
	Front
	target uint64 // the instruction count that ends its current phase
	// The front's counters at the last epoch boundary.
	prevInstrs uint64
	prevCycles float64
	prevLLC    cache.Stats
}

// pollMask sets how often the step loop polls its context: once per
// 1024 core steps, invisible next to the per-step simulation work.
const pollMask = 1<<10 - 1

// Engine drives the fronts of one wired system through the run phases.
// It owns no model state — construction is cheap and an Engine is
// single-use.
type Engine struct {
	kernel *sim.Kernel
	ctl    *mem.Controller
	fronts []front
	run    config.Run
	opts   Options

	phase      string
	steps      uint64 // core steps taken, for the context poll
	totalInstr uint64 // fronts × (warmup + detailed), for progress
	epochIdx   int
	prevEnd    sim.Tick
	prevMem    mem.Counters
	prevWear   wear.MeterSnapshot
	series     []EpochSample
}

// New wires an engine over an assembled system: one or more fronts over
// one controller, all sharing kernel.
func New(kernel *sim.Kernel, ctl *mem.Controller, fronts []Front, run config.Run, opts Options) *Engine {
	e := &Engine{
		kernel: kernel, ctl: ctl, fronts: make([]front, len(fronts)),
		run: run, opts: opts,
		totalInstr: uint64(len(fronts)) * (run.WarmupInstructions + run.DetailedInstructions),
	}
	for i, f := range fronts {
		e.fronts[i].Front = f
	}
	return e
}

// rebase re-captures the counter baselines; called at start and after
// the warmup-boundary stats reset so epoch deltas never span a counter
// reset.
func (e *Engine) rebase() {
	for i := range e.fronts {
		f := &e.fronts[i]
		f.prevInstrs, f.prevCycles, f.prevLLC = f.Core.Instructions(), f.Core.Cycles(), f.Hier.Snapshot()
	}
	e.prevMem = e.ctl.Counters()
	e.prevWear, _ = e.ctl.Wear()
}

// sampleEpoch is the probe callback: close the interval ending at now.
// It is the one place that knows which fields a sample reports and how
// each is differenced. Core and LLC fields sum the fronts' deltas;
// memory fields are the shared controller's.
func (e *Engine) sampleEpoch(now sim.Tick) {
	s := EpochSample{Epoch: e.epochIdx, Phase: e.phase, Start: e.prevEnd, End: now}
	var instrs uint64
	for i := range e.fronts {
		f := &e.fronts[i]
		in, cyc, llc := f.Core.Instructions(), f.Core.Cycles(), f.Hier.Snapshot()
		// The sums add the fronts in index order onto zero, and 0+x is
		// x exactly, so they start from front 0's deltas: a single
		// run's sample is its own counters' bit for bit.
		s.Instructions += in - f.prevInstrs
		s.Cycles += cyc - f.prevCycles
		s.LLCHits += llc.L3Hits - f.prevLLC.L3Hits
		s.LLCMisses += llc.LLCMisses - f.prevLLC.LLCMisses
		s.LLCEvictions += llc.MemWritebacks - f.prevLLC.MemWritebacks
		s.EagerIssued += llc.EagerIssued - f.prevLLC.EagerIssued
		instrs += in
		f.prevInstrs, f.prevCycles, f.prevLLC = in, cyc, llc
	}
	if s.Cycles > 0 {
		s.IPC = float64(s.Instructions) / s.Cycles
	}

	mc := e.ctl.Counters()
	w, maxDamage := e.ctl.Wear()
	s.Reads = mc.Reads - e.prevMem.Reads
	s.EagerDone = mc.EagerDone - e.prevMem.EagerDone
	s.Cancellations = mc.Cancellations - e.prevMem.Cancellations
	s.Pauses = mc.Pauses - e.prevMem.Pauses
	s.Drains = mc.Drains - e.prevMem.Drains
	s.WritesFast = w.Writes[nvm.WriteNormal] - e.prevWear.Writes[nvm.WriteNormal]
	s.WritesSlow = w.SlowCompleted() - e.prevWear.SlowCompleted()
	s.ReadQueue, s.WriteQueue, s.EagerQueue = e.ctl.QueueDepths()
	s.Draining = e.ctl.Draining()
	s.MaxBankDamage = maxDamage
	s.Progress = e.progressAt(instrs)

	e.opts.Timeline.Slice(xtrace.TrackEpoch, "epoch", "epoch",
		s.Start, s.End, 0, uint64(s.Epoch))

	e.epochIdx++
	e.prevEnd = now
	e.prevMem, e.prevWear = mc, w
	e.series = append(e.series, s)
	if e.opts.OnEpoch != nil {
		e.opts.OnEpoch(s)
	}
}

// progressAt maps the fronts' total instruction count to a run fraction.
func (e *Engine) progressAt(instrs uint64) float64 {
	if e.totalInstr == 0 {
		return 0
	}
	p := float64(instrs) / float64(e.totalInstr)
	if p > 1 {
		p = 1
	}
	return p
}

// runPhase steps every front until it has run n instructions past where
// it stood when the phase began. Fronts co-simulate conservatively: the
// live front with the fewest cycles steps next, the lowest index on a
// tie, so no core submits requests into another's past. The picked
// front keeps stepping while its (cycles, index) stays below the least
// such pair among the other live fronts; a lone front has none to
// compare against, so a single run is one tight loop. A cancelled or
// expired ctx ends the phase with its error.
func (e *Engine) runPhase(ctx context.Context, n uint64) error {
	for i := range e.fronts {
		e.fronts[i].target = e.fronts[i].Core.Instructions() + n
	}
	for {
		pick, next := -1, len(e.fronts)
		for i := range e.fronts {
			f := &e.fronts[i]
			if f.Core.Instructions() >= f.target {
				continue
			}
			switch cyc := f.Core.Cycles(); {
			case pick < 0:
				pick = i
			case cyc < e.fronts[pick].Core.Cycles():
				pick, next = i, pick
			case next == len(e.fronts) || cyc < e.fronts[next].Core.Cycles():
				next = i
			}
		}
		if pick < 0 {
			return nil
		}
		bound := math.Inf(1)
		if next < len(e.fronts) {
			bound = e.fronts[next].Core.Cycles()
		}
		f := &e.fronts[pick]
		for c := f.Core; c.Instructions() < f.target; {
			if cyc := c.Cycles(); cyc > bound || cyc == bound && pick > next {
				break
			}
			if e.steps&pollMask == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			e.steps++
			c.Step()
		}
	}
}

// Run executes the phases: warmup (statistics frozen), detailed (the
// measured window), and drain (the memory clock catches up with the
// slowest core). Every front runs each phase to its own instruction
// count. Run returns the epoch series of an observed run (nil
// otherwise) and leaves the system quiescent, its components holding
// the measured window for the caller to snapshot. With no observation
// options set the run is bit-identical to the pre-engine pipeline; with
// an epoch probe the results are still identical and a deterministic
// time series is produced on the side. Cancellation aborts within 1024
// core steps with ctx's error.
func (e *Engine) Run(ctx context.Context) ([]EpochSample, error) {
	if reg := e.opts.Metrics; reg != nil {
		// The collectors are registered up front but evaluated only when
		// the registry is snapshotted — typically after Run returns, when
		// the system is quiescent, so the snapshot is deterministic.
		// A mix labels each front's families with its core index, so
		// that no two cores publish the same series.
		for i, f := range e.fronts {
			core, hier := metrics.Collector(f.Core.CollectMetrics), metrics.Collector(f.Hier.CollectMetrics)
			if len(e.fronts) > 1 {
				core = metrics.Labelled("core", strconv.Itoa(i), core)
				hier = metrics.Labelled("core", strconv.Itoa(i), hier)
			}
			reg.RegisterCollector(core)
			reg.RegisterCollector(hier)
		}
		reg.RegisterCollector(e.ctl.CollectMetrics)
	}
	if e.opts.Epoch > 0 {
		id := e.kernel.AddProbe(e.opts.Epoch, e.sampleEpoch)
		defer e.kernel.RemoveProbe(id)
		e.rebase()
	}
	tl := e.opts.Timeline
	if tl != nil {
		e.ctl.SetTrace(tl)
		defer e.ctl.SetTrace(nil)
	}

	e.phase = PhaseWarmup
	phaseStart := e.kernel.Now()
	if err := e.runPhase(ctx, e.run.WarmupInstructions); err != nil {
		return nil, err
	}
	tl.Slice(xtrace.TrackPhase, PhaseWarmup, "phase", phaseStart, e.kernel.Now(), 0, 0)
	for _, f := range e.fronts {
		f.Hier.ResetStats()
		f.Core.BeginMeasurement()
	}
	e.ctl.ResetStats()
	// Counter baselines must not span the warmup-boundary reset.
	if e.opts.Epoch > 0 {
		e.rebase()
	}

	e.phase = PhaseDetailed
	phaseStart = e.kernel.Now()
	if err := e.runPhase(ctx, e.run.DetailedInstructions); err != nil {
		return nil, err
	}
	tl.Slice(xtrace.TrackPhase, PhaseDetailed, "phase", phaseStart, e.kernel.Now(), 0, 0)

	// Drain: align the memory clock with the slowest core before
	// snapshotting so utilization windows match the measured cycles.
	e.phase = PhaseDrain
	phaseStart = e.kernel.Now()
	var end sim.Tick
	for _, f := range e.fronts {
		end = max(end, sim.Tick(f.Core.Cycles()))
	}
	if end > e.ctl.Now() {
		e.ctl.AdvanceTo(end)
	}
	tl.Slice(xtrace.TrackPhase, PhaseDrain, "phase", phaseStart, e.kernel.Now(), 0, 0)
	e.ctl.FlushTrace()

	if e.opts.Epoch > 0 {
		// Close a final partial epoch so the series covers the whole
		// run; skip it when the probe already sampled this exact tick.
		if now := e.kernel.Now(); now > e.prevEnd {
			e.sampleEpoch(now)
		}
	}
	return e.series, nil
}
