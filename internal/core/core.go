// Package core assembles the full system — workload generator, OoO core
// model, cache hierarchy, and resistive-memory controller — and runs one
// simulation, producing the measurements every figure of the paper is
// built from.
package core

import (
	"context"
	"fmt"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/cpu"
	"mellow/internal/engine"
	"mellow/internal/mem"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/sim"
	"mellow/internal/trace"
)

// Result is the outcome of one (workload, policy, config) simulation.
type Result struct {
	Workload string
	Policy   string
	// Instructions and Cycles cover the post-warmup window.
	Instructions uint64
	Cycles       float64
	// IPC is the headline performance metric (Figures 2, 10, 19).
	IPC float64
	// MPKI is LLC misses per 1000 instructions (Table IV).
	MPKI float64
	// Mem carries lifetime, utilization, drain, energy and bank traffic.
	Mem mem.Snapshot
	// Cache carries LLC traffic (Figure 14) and eager statistics.
	Cache cache.Stats
}

// LifetimeYears is shorthand for the §V lifetime metric.
func (r Result) LifetimeYears() float64 { return r.Mem.LifetimeYears }

// System is a fully wired simulator instance.
type System struct {
	Cfg    config.Config
	Spec   policy.Spec
	Kernel *sim.Kernel
	Hier   *cache.Hierarchy
	Ctl    *mem.Controller
	Core   *cpu.Core

	workload trace.Workload
}

// NewSystem builds and wires a system for one workload and policy.
func NewSystem(cfg config.Config, spec policy.Spec, w trace.Workload) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	src := rng.New(cfg.Run.Seed)
	hier := cache.NewHierarchy(cfg.Caches, src.Branch(1))
	ctl := mem.New(k, cfg.Memory, spec)
	ctl.SetEagerSource(hier.EagerCandidate)
	gen := w.New(cfg.Run.Seed)
	core := cpu.New(cfg, hier, ctl, gen)

	// The LLC's useless-position profiler rotates every T_sample
	// (§IV-B1), driven by the memory clock.
	var rotate sim.Event
	rotate = func(sim.Tick) {
		hier.RotateProfile()
		k.After(cfg.Caches.ProfilePeriod, rotate)
	}
	k.After(cfg.Caches.ProfilePeriod, rotate)

	return &System{
		Cfg: cfg, Spec: spec, Kernel: k,
		Hier: hier, Ctl: ctl, Core: core,
		workload: w,
	}, nil
}

// Engine builds the phase-aware run engine for this system with the
// given observation options. The engine is single-use.
func (s *System) Engine(opts engine.Options) *engine.Engine {
	return engine.New(s.Kernel, s.Hier, s.Ctl, s.Core, s.Cfg.Run, opts)
}

// RunContext warms the system up, measures the detailed window and
// returns the result. The simulation loop polls ctx at checkpoints and
// aborts with ctx's error when it is cancelled or times out. It is a
// thin wrapper over the engine with no observers attached.
func (s *System) RunContext(ctx context.Context) (Result, error) {
	r, _, err := s.RunObserved(ctx, engine.Options{})
	return r, err
}

// RunObserved runs the phase-aware engine with the given observation
// options, returning the result plus the epoch time series (nil unless
// opts.Epoch > 0). Results are bit-identical to RunContext regardless of
// the observers attached.
func (s *System) RunObserved(ctx context.Context, opts engine.Options) (Result, []engine.EpochSample, error) {
	out, err := s.Engine(opts).Run(ctx)
	if err != nil {
		return Result{}, nil, err
	}
	return s.resultOf(out), out.Series, nil
}

// Release hands the system's cache arrays, kernel and request arena
// back for reuse by the next system. Only the caller that built the
// system releases it, once, after it has read every output it needs; a
// metrics registry attached to the run can still be snapshotted
// afterwards. A caller that keeps the system simply never releases it.
func (s *System) Release() {
	s.Hier.Release()
	s.Ctl.ReleaseArena()
	s.Kernel.Release()
}

// resultOf labels an engine outcome with this system's identity and
// derives the per-instruction metrics.
func (s *System) resultOf(out engine.Outcome) Result {
	r := Result{
		Workload:     s.workload.Name,
		Policy:       s.Spec.Name,
		IPC:          out.IPC,
		Instructions: out.Instructions,
		Cycles:       out.Cycles,
		Mem:          out.Mem,
		Cache:        out.Cache,
	}
	if r.Instructions > 0 {
		r.MPKI = float64(out.Cache.LLCMisses) / (float64(r.Instructions) / 1000)
	}
	return r
}

// Run is the one-call entry point: build a fresh system for workload w
// and run it under spec with cfg and the given observation options. It
// returns the result plus the epoch series (nil unless opts.Epoch > 0);
// the result is bit-identical whatever observers opts attaches. The
// system is released once the run returns. Resolve a builtin name with
// trace.ByName first.
func Run(ctx context.Context, cfg config.Config, spec policy.Spec, w trace.Workload, opts engine.Options) (Result, []engine.EpochSample, error) {
	sys, err := NewSystem(cfg, spec, w)
	if err != nil {
		return Result{}, nil, fmt.Errorf("core: %w", err)
	}
	defer sys.Release()
	return sys.RunObserved(ctx, opts)
}
