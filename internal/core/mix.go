package core

import (
	"context"
	"fmt"

	"mellow/internal/config"
	"mellow/internal/engine"
	"mellow/internal/mem"
	"mellow/internal/policy"
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

// RunMix simulates the workloads on one core each (private L1/L2/LLC
// per program — a multiprogrammed, not shared-cache, CMP) against a
// single shared memory controller under the given policy, through the
// same engine as a single run: every core runs each phase to its own
// instruction count, the cores co-simulating in local-time order. It
// returns the result plus the epoch series (nil unless opts.Epoch > 0),
// whose core and LLC fields sum over the cores; the result is
// bit-identical whatever observers opts attaches, and a mix that is
// never cancelled gives the same result whatever ctx is. The per-core
// hierarchies, the kernel and the controller's arena are released once
// the mix returns. Resolve builtin names with trace.ByName first.
func RunMix(ctx context.Context, cfg config.Config, spec policy.Spec, workloads []trace.Workload, opts engine.Options) (MixResult, []engine.EpochSample, error) {
	if len(workloads) == 0 {
		return MixResult{}, nil, fmt.Errorf("core: empty workload mix")
	}
	sys, err := wire(cfg, spec, workloads, true)
	if err != nil {
		return MixResult{}, nil, fmt.Errorf("core: %w", err)
	}
	defer sys.Release()
	series, err := sys.Engine(opts).Run(ctx)
	if err != nil {
		return MixResult{}, nil, err
	}
	res := MixResult{Policy: spec.Name, Cores: make([]Result, len(workloads)), Mem: sys.Ctl.Snapshot()}
	for i, f := range sys.Fronts {
		res.Cores[i] = result(workloads[i].Name, spec.Name, f)
	}
	return res, series, nil
}
