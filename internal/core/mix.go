package core

import (
	"context"
	"fmt"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/cpu"
	"mellow/internal/mem"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/sim"
	"mellow/internal/trace"
)

// MixResult is the outcome of a multiprogrammed simulation: several
// cores, each with a private cache hierarchy, sharing one resistive
// memory system. Bank interference between programs is exactly what
// erodes the idle time Mellow Writes feeds on, so mixes probe the
// mechanisms beyond the paper's single-core evaluation.
type MixResult struct {
	Policy string
	// Cores holds per-core results; Mem fields there are zero — the
	// memory system is shared and reported once below.
	Cores []Result
	// Mem is the shared memory system's measurement window.
	Mem mem.Snapshot
}

// LifetimeYears is the shared memory's projected lifetime.
func (m MixResult) LifetimeYears() float64 { return m.Mem.LifetimeYears }

// WeightedIPC is the throughput metric: the sum of per-core IPCs.
func (m MixResult) WeightedIPC() float64 {
	sum := 0.0
	for _, c := range m.Cores {
		sum += c.IPC
	}
	return sum
}

// mixCancelCheck is how many core steps RunMix takes between polls of
// its context, the granularity cpu.Core.RunCancellable uses.
const mixCancelCheck = 1 << 10

// mixCore bundles one program's private front end.
type mixCore struct {
	name string
	hier *cache.Hierarchy
	core *cpu.Core
	done bool
}

// RunMix simulates the workloads on one core each (private L1/L2/LLC
// per program — a multiprogrammed, not shared-cache, CMP) against a
// single shared memory controller under the given policy. Cores
// co-simulate conservatively: at every step the core with the smallest
// local time advances, so no core submits requests into another's past.
// The loop polls ctx every mixCancelCheck steps and returns ctx's error
// once it is cancelled or times out; a mix that is never cancelled gives
// the same result whatever ctx is. The per-core hierarchies, the kernel
// and the controller's arena are released once the mix returns. Resolve
// builtin names with trace.ByName first.
func RunMix(ctx context.Context, cfg config.Config, spec policy.Spec, workloads []trace.Workload) (MixResult, error) {
	if err := cfg.Validate(); err != nil {
		return MixResult{}, err
	}
	if len(workloads) == 0 {
		return MixResult{}, fmt.Errorf("core: empty workload mix")
	}
	k := sim.NewKernel()
	ctl := mem.New(k, cfg.Memory, spec)
	src := rng.New(cfg.Run.Seed)

	cores := make([]*mixCore, len(workloads))
	for i, w := range workloads {
		hier := cache.NewHierarchy(cfg.Caches, src.Branch(uint64(i)))
		gen := w.New(cfg.Run.Seed + uint64(i)*1001)
		cores[i] = &mixCore{name: w.Name, hier: hier, core: cpu.New(cfg, hier, ctl, gen)}
	}
	defer func() {
		for _, c := range cores {
			c.hier.Release()
		}
		ctl.ReleaseArena()
		k.Release()
	}()

	// The eager source drains candidates from the private LLCs round-
	// robin, so no program monopolises the eager queue.
	next := 0
	ctl.SetEagerSource(func() (uint64, bool) {
		for tries := 0; tries < len(cores); tries++ {
			h := cores[next].hier
			next = (next + 1) % len(cores)
			if line, ok := h.EagerCandidate(); ok {
				return line, true
			}
		}
		return 0, false
	})
	var rotate sim.Event
	rotate = func(sim.Tick) {
		for _, c := range cores {
			c.hier.RotateProfile()
		}
		k.After(cfg.Caches.ProfilePeriod, rotate)
	}
	k.After(cfg.Caches.ProfilePeriod, rotate)

	steps := 0
	runPhase := func(target uint64) error {
		for ; ; steps++ {
			if steps%mixCancelCheck == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			// Advance the laggard that still has work.
			var pick *mixCore
			for _, c := range cores {
				if c.done {
					continue
				}
				if c.core.Instructions() >= target {
					c.done = true
					continue
				}
				if pick == nil || c.core.Cycles() < pick.core.Cycles() {
					pick = c
				}
			}
			if pick == nil {
				return nil
			}
			pick.core.Step()
		}
	}

	if err := runPhase(cfg.Run.WarmupInstructions); err != nil {
		return MixResult{}, err
	}
	for _, c := range cores {
		c.done = false
		c.hier.ResetStats()
		c.core.BeginMeasurement()
	}
	ctl.ResetStats()
	if err := runPhase(cfg.Run.WarmupInstructions + cfg.Run.DetailedInstructions); err != nil {
		return MixResult{}, err
	}

	// Align the memory clock with the slowest core.
	var maxT sim.Tick
	for _, c := range cores {
		if t := sim.Tick(c.core.Cycles()); t > maxT {
			maxT = t
		}
	}
	if maxT > ctl.Now() {
		ctl.AdvanceTo(maxT)
	}

	res := MixResult{Policy: spec.Name}
	for _, c := range cores {
		cs := c.hier.Snapshot()
		r := Result{
			Workload:     c.name,
			Policy:       spec.Name,
			IPC:          c.core.IPC(),
			Instructions: c.core.MeasuredInstructions(),
			Cycles:       c.core.MeasuredCycles(),
			Cache:        cs,
		}
		if r.Instructions > 0 {
			r.MPKI = float64(cs.LLCMisses) / (float64(r.Instructions) / 1000)
		}
		res.Cores = append(res.Cores, r)
	}
	res.Mem = ctl.Snapshot()
	return res, nil
}
