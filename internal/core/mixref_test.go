package core

import (
	"context"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/cpu"
	"mellow/internal/mem"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/sim"
	"mellow/internal/trace"
)

// refMixCore bundles one program's private front end for refRunMix.
type refMixCore struct {
	name   string
	hier   *cache.Hierarchy
	core   *cpu.Core
	target uint64
	done   bool
}

// refRunMix is the reference a mix through the engine must match byte
// for byte: a loop of its own that rescans every core before each step
// and advances the laggard, the core with the fewest cycles (the lowest
// index on a tie), until every core has run each phase's instructions
// past where it stood when the phase began. It wires the system by hand,
// seeds core i with branch i and seed+1001·i, and never releases it.
func refRunMix(ctx context.Context, cfg config.Config, spec policy.Spec, workloads []trace.Workload) (MixResult, error) {
	k := sim.NewKernel()
	ctl := mem.New(k, cfg.Memory, spec)
	src := rng.New(cfg.Run.Seed)

	cores := make([]*refMixCore, len(workloads))
	for i, w := range workloads {
		hier := cache.NewHierarchy(cfg.Caches, src.Branch(uint64(i)))
		gen := w.New(cfg.Run.Seed + uint64(i)*1001)
		cores[i] = &refMixCore{name: w.Name, hier: hier, core: cpu.New(cfg, hier, ctl, gen)}
	}

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
	rotate = func(now sim.Tick) {
		for _, c := range cores {
			c.hier.RotateProfile()
		}
		k.AtEvent(now+cfg.Caches.ProfilePeriod, rotate, 0, 0)
	}
	k.AtEvent(cfg.Caches.ProfilePeriod, rotate, 0, 0)

	steps := 0
	runPhase := func(n uint64) error {
		for _, c := range cores {
			c.done = false
			c.target = c.core.Instructions() + n
		}
		for ; ; steps++ {
			if steps%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			var pick *refMixCore
			for _, c := range cores {
				if c.done {
					continue
				}
				if c.core.Instructions() >= c.target {
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
		c.hier.ResetStats()
		c.core.BeginMeasurement()
	}
	ctl.ResetStats()
	if err := runPhase(cfg.Run.DetailedInstructions); err != nil {
		return MixResult{}, err
	}

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
