// Package engine owns the simulation run pipeline: the warmup →
// detailed → drain phasing that used to live inline in core.Run, plus an
// epoch probe that turns a run from an opaque black box into an
// interval-resolved time series.
//
// The paper's mechanisms are all periodic — the LLC useless-position
// profiler rotates and Wear Quota re-budgets every 500 µs — so the
// engine samples on the same clock: a sim.Kernel probe fires every
// Options.Epoch ticks of simulated time and snapshots the cheap probe
// counters of cpu, cache and mem into an EpochSample. Probes are
// read-only observers interleaved deterministically with the event heap,
// so a run with an epoch probe attached produces bit-identical results
// to one without, and the series itself is deterministic: same (config,
// policy, workload, seed, epoch) → same samples, byte for byte.
//
// A run has one live feed: each closed sample is a plain value, appended
// to the series and handed to Options.OnEpoch. The sample's Progress is
// the run's completion fraction at its boundary, so a live observer's
// progress steps once per epoch; there is no other progress channel.
package engine

import (
	"context"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/cpu"
	"mellow/internal/mem"
	"mellow/internal/metrics"
	"mellow/internal/sim"
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
	// the run: the epoch probe fires every Epoch ticks and the Outcome
	// carries the series. Zero observes nothing.
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

// Outcome is the engine's measurement of one run: the end-of-run
// aggregates every paper figure is built from, plus the epoch series
// of an observed run.
type Outcome struct {
	Instructions uint64
	Cycles       float64
	IPC          float64
	Mem          mem.Snapshot
	Cache        cache.Stats
	Series       []EpochSample
}

// Engine drives one wired system through the run phases. It owns no
// model state — construction is cheap and an Engine is single-use.
type Engine struct {
	kernel *sim.Kernel
	hier   *cache.Hierarchy
	ctl    *mem.Controller
	core   *cpu.Core
	run    config.Run
	opts   Options

	phase      string
	totalInstr uint64 // warmup + detailed, for progress accounting
	epochIdx   int
	prevEnd    sim.Tick
	prevCPU    cpu.ProbeCounters
	prevCache  cache.ProbeCounters
	prevMem    mem.ProbeCounters
	series     []EpochSample
}

// New wires an engine over an assembled system. The components must all
// share kernel.
func New(kernel *sim.Kernel, hier *cache.Hierarchy, ctl *mem.Controller,
	core *cpu.Core, run config.Run, opts Options) *Engine {
	return &Engine{
		kernel: kernel, hier: hier, ctl: ctl, core: core,
		run: run, opts: opts,
		totalInstr: run.WarmupInstructions + run.DetailedInstructions,
	}
}

// rebase re-captures the probe-counter baselines; called at start and
// after the warmup-boundary stats reset so epoch deltas never span a
// counter reset.
func (e *Engine) rebase() {
	e.prevCPU = e.core.ProbeCounters()
	e.prevCache = e.hier.ProbeCounters()
	e.prevMem = e.ctl.ProbeCounters()
}

// sampleEpoch is the probe callback: close the interval ending at now.
func (e *Engine) sampleEpoch(now sim.Tick) {
	curCPU := e.core.ProbeCounters()
	curCache := e.hier.ProbeCounters()
	curMem := e.ctl.ProbeCounters()
	dCPU := curCPU.Delta(e.prevCPU)
	dCache := curCache.Delta(e.prevCache)
	dMem := curMem.Delta(e.prevMem)

	s := EpochSample{
		Epoch:         e.epochIdx,
		Phase:         e.phase,
		Start:         e.prevEnd,
		End:           now,
		Instructions:  dCPU.Instructions,
		Cycles:        dCPU.Cycles,
		LLCHits:       dCache.LLCHits,
		LLCMisses:     dCache.LLCMisses,
		LLCEvictions:  dCache.LLCEvictions,
		EagerIssued:   dCache.EagerIssued,
		Reads:         dMem.Reads,
		WritesFast:    dMem.WritesFast,
		WritesSlow:    dMem.WritesSlow,
		EagerDone:     dMem.EagerDone,
		Cancellations: dMem.Cancellations,
		Pauses:        dMem.Pauses,
		Drains:        dMem.Drains,
		ReadQueue:     dMem.ReadQueue,
		WriteQueue:    dMem.WriteQueue,
		EagerQueue:    dMem.EagerQueue,
		Draining:      dMem.Draining,
		MaxBankDamage: dMem.MaxBankDamage,
		Progress:      e.progressAt(curCPU.Instructions),
	}
	if dCPU.Cycles > 0 {
		s.IPC = float64(dCPU.Instructions) / dCPU.Cycles
	}

	e.opts.Timeline.Slice(xtrace.TrackEpoch, "epoch", "epoch",
		s.Start, s.End, 0, uint64(s.Epoch))

	e.epochIdx++
	e.prevEnd = now
	e.prevCPU, e.prevCache, e.prevMem = curCPU, curCache, curMem
	e.series = append(e.series, s)
	if e.opts.OnEpoch != nil {
		e.opts.OnEpoch(s)
	}
}

// progressAt maps a cumulative instruction count to a run fraction.
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

// Run executes the phases: warmup (statistics frozen), detailed (the
// measured window), and drain (the memory clock catches up with the
// core before the final snapshot). With no observation options set it
// is bit-identical to the pre-engine pipeline; with an epoch probe the
// results are still identical and a deterministic time series is
// produced on the side. Cancellation aborts at the next checkpoint with
// ctx's error.
func (e *Engine) Run(ctx context.Context) (Outcome, error) {
	if reg := e.opts.Metrics; reg != nil {
		// The collectors are registered up front but evaluated only when
		// the registry is snapshotted — typically after Run returns, when
		// the system is quiescent, so the snapshot is deterministic.
		reg.RegisterCollector(e.core.CollectMetrics)
		reg.RegisterCollector(e.hier.CollectMetrics)
		reg.RegisterCollector(e.ctl.CollectMetrics)
	}
	// context.Background and friends have a nil Done channel; skip the
	// per-checkpoint poll entirely for them.
	var cancelled func() bool
	if ctx.Done() != nil {
		cancelled = func() bool { return ctx.Err() != nil }
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
	if e.run.WarmupInstructions > 0 {
		if !e.core.RunCancellable(e.run.WarmupInstructions, cancelled) {
			return Outcome{}, ctx.Err()
		}
	}
	tl.Slice(xtrace.TrackPhase, PhaseWarmup, "phase", phaseStart, e.kernel.Now(), 0, 0)
	e.hier.ResetStats()
	e.ctl.ResetStats()
	e.core.BeginMeasurement()
	// Counter baselines must not span the warmup-boundary reset.
	if e.opts.Epoch > 0 {
		e.rebase()
	}

	e.phase = PhaseDetailed
	phaseStart = e.kernel.Now()
	if !e.core.RunCancellable(e.run.DetailedInstructions, cancelled) {
		return Outcome{}, ctx.Err()
	}
	tl.Slice(xtrace.TrackPhase, PhaseDetailed, "phase", phaseStart, e.kernel.Now(), 0, 0)

	// Drain: align the memory clock with the core before snapshotting so
	// utilization windows match the measured cycles.
	e.phase = PhaseDrain
	phaseStart = e.kernel.Now()
	if t := sim.Tick(e.core.Cycles()); t > e.ctl.Now() {
		e.ctl.AdvanceTo(t)
	}
	tl.Slice(xtrace.TrackPhase, PhaseDrain, "phase", phaseStart, e.kernel.Now(), 0, 0)
	e.ctl.FlushTrace()

	out := Outcome{
		Instructions: e.core.MeasuredInstructions(),
		Cycles:       e.core.MeasuredCycles(),
		IPC:          e.core.IPC(),
		Mem:          e.ctl.Snapshot(),
		Cache:        e.hier.Snapshot(),
		Series:       e.series,
	}
	if e.opts.Epoch > 0 {
		// Close a final partial epoch so the series covers the whole
		// run; skip it when the probe already sampled this exact tick.
		if now := e.kernel.Now(); now > e.prevEnd {
			e.sampleEpoch(now)
			out.Series = e.series
		}
	}
	return out, nil
}
