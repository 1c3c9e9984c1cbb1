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

// System is a fully wired simulator instance: one front per program,
// each a private cache hierarchy and core, over one kernel and one
// memory controller.
type System struct {
	Cfg    config.Config
	Spec   policy.Spec
	Kernel *sim.Kernel
	Ctl    *mem.Controller
	Fronts []engine.Front

	workload trace.Workload // a single run's, which RunObserved reports
	next     int            // the front the eager source asks first
}

// NewSystem builds and wires a system for one workload and policy.
func NewSystem(cfg config.Config, spec policy.Spec, w trace.Workload) (*System, error) {
	return wire(cfg, spec, []trace.Workload{w}, false)
}

// wire builds a system with one front per workload. The fronts share
// the controller's eager queue round-robin and the profiler's rotation
// clock. A single run's front draws its hierarchy from branch 1 of the
// run's seed and its trace from the seed itself; mix core i draws from
// branch i and seed+1001·i, so two copies of one workload in a mix
// issue distinct streams.
func wire(cfg config.Config, spec policy.Spec, ws []trace.Workload, mix bool) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	ctl := mem.New(k, cfg.Memory, spec)
	src := rng.New(cfg.Run.Seed)
	s := &System{
		Cfg: cfg, Spec: spec, Kernel: k, Ctl: ctl,
		Fronts: make([]engine.Front, len(ws)), workload: ws[0],
	}
	for i, w := range ws {
		branch, seed := uint64(1), cfg.Run.Seed
		if mix {
			branch, seed = uint64(i), cfg.Run.Seed+uint64(i)*1001
		}
		hier := cache.NewHierarchy(cfg.Caches, src.Branch(branch))
		s.Fronts[i] = engine.Front{Hier: hier, Core: cpu.New(cfg, hier, ctl, w.New(seed))}
	}
	ctl.SetEagerSource(s.eagerCandidate)
	// The LLC's useless-position profiler rotates every T_sample
	// (§IV-B1), driven by the memory clock.
	var rotate sim.Event
	rotate = func(now sim.Tick) {
		for _, f := range s.Fronts {
			f.Hier.RotateProfile()
		}
		k.AtEvent(now+cfg.Caches.ProfilePeriod, rotate, 0, 0)
	}
	k.AtEvent(cfg.Caches.ProfilePeriod, rotate, 0, 0)
	return s, nil
}

// eagerCandidate is the controller's eager source: it drains candidates
// from the private LLCs round-robin, so no program monopolises the
// eager queue.
func (s *System) eagerCandidate() (uint64, bool) {
	for range s.Fronts {
		h := s.Fronts[s.next].Hier
		s.next = (s.next + 1) % len(s.Fronts)
		if line, ok := h.EagerCandidate(); ok {
			return line, true
		}
	}
	return 0, false
}

// Engine builds the phase-aware run engine for this system with the
// given observation options. The engine is single-use.
func (s *System) Engine(opts engine.Options) *engine.Engine {
	return engine.New(s.Kernel, s.Ctl, s.Fronts, s.Cfg.Run, opts)
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
	series, err := s.Engine(opts).Run(ctx)
	if err != nil {
		return Result{}, nil, err
	}
	r := result(s.workload.Name, s.Spec.Name, s.Fronts[0])
	r.Mem = s.Ctl.Snapshot()
	return r, series, nil
}

// Release hands the system's cache arrays, kernel and request arena
// back for reuse by the next system. Only the caller that built the
// system releases it, once, after it has read every output it needs; a
// metrics registry attached to the run can still be snapshotted
// afterwards. A caller that keeps the system simply never releases it.
func (s *System) Release() {
	for _, f := range s.Fronts {
		f.Hier.Release()
	}
	s.Ctl.ReleaseArena()
	s.Kernel.Release()
}

// result measures one front's window after a run, labelled with its
// workload and policy. Mem is left for the caller: the memory system is
// shared by every front.
func result(workload, policy string, f engine.Front) Result {
	r := Result{
		Workload:     workload,
		Policy:       policy,
		IPC:          f.Core.IPC(),
		Instructions: f.Core.MeasuredInstructions(),
		Cycles:       f.Core.MeasuredCycles(),
		Cache:        f.Hier.Snapshot(),
	}
	if r.Instructions > 0 {
		r.MPKI = float64(r.Cache.LLCMisses) / (float64(r.Instructions) / 1000)
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
