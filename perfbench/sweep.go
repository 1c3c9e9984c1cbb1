package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"mellow"
	"mellow/internal/core"
	"mellow/internal/trace"
)

// sweepDef is a policy × leveler × workload matrix whose cells run one
// at a time, each a fresh simulation of the given run lengths.
type sweepDef struct {
	workloads        []string
	policies         []string
	levelers         []string
	warmup, detailed uint64
}

// Both sweeps use BenchmarkSimulation's run lengths (bench_test.go), so
// a sweep-cacheres GemsFDTD cell is the simulation that benchmark times,
// and long enough for the 2 MB LLC to fill: dirty evictions then reach
// memory and writes run beside reads.
const sweepWarmup, sweepDetailed = 500_000, 1_500_000

// memBound loads the sim kernel, memory controller, CPU model and wear
// levelers: mcf's dependent random reads and lbm's write-heavy streams,
// under policies without eager write-backs.
var memBound = sweepDef{
	workloads: []string{"mcf", "lbm"},
	policies:  []string{"Norm", "B-Mellow+SC"},
	levelers:  []string{"startgap", "wolfram", "softwear"},
	warmup:    sweepWarmup,
	detailed:  sweepDetailed,
}

// cacheRes loads the cache hierarchy (LRU lookups and installs, the
// eager-writeback profiler) and the Zipf hot-set generators in rng and
// trace, while memory and the kernel stay lightly loaded.
var cacheRes = sweepDef{
	workloads: []string{"hmmer", "zeusmp", "leslie3d", "GemsFDTD"},
	policies:  []string{"BE-Mellow+SC+WQ"},
	levelers:  []string{"startgap"},
	warmup:    sweepWarmup,
	detailed:  sweepDetailed,
}

type cell struct {
	workload string
	policy   mellow.Policy
	leveler  string
}

// sweep runs a sweepDef's cells round-robin. Round r of the matrix uses
// seed index r/2, so every odd round repeats the previous round's
// simulations and each must reproduce its twin's result exactly.
type sweep struct {
	def    sweepDef
	cells  []cell
	seed   uint64
	traced bool
	// twins holds the result hash of each even-round operation until its
	// odd-round twin has been checked.
	twins map[int][32]byte
}

func newSweep(def sweepDef, seed uint64, traced bool) (session, error) {
	s := &sweep{def: def, seed: seed, traced: traced, twins: map[int][32]byte{}}
	for _, w := range def.workloads {
		if _, err := trace.ByName(w); err != nil {
			return nil, err
		}
		for _, pn := range def.policies {
			p, err := mellow.ParsePolicy(pn)
			if err != nil {
				return nil, err
			}
			for _, l := range def.levelers {
				s.cells = append(s.cells, cell{w, p, l})
			}
		}
	}
	// Validate one configuration up front so a bad table fails set-up,
	// not the first operation.
	if err := s.config(0).Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// config is operation i's configuration.
func (s *sweep) config(i int) mellow.Config {
	round := i / len(s.cells)
	cfg := mellow.DefaultConfig()
	cfg.Run.WarmupInstructions = s.def.warmup
	cfg.Run.DetailedInstructions = s.def.detailed
	cfg.Run.Seed = derive(s.seed, uint64(round/2))
	cfg.Memory.WearLeveler = s.cells[i%len(s.cells)].leveler
	return cfg
}

func (s *sweep) run(deadline time.Time) *tally {
	t := &tally{digestOps: 2 * len(s.cells), tailQ: 0.90}
	cellMS := make([][]float64, len(s.cells))
	cellTicks := make([][]float64, len(s.cells))
	start := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		t.attempted++
		c := s.cells[i%len(s.cells)]
		cfg := s.config(i)
		t0 := time.Now()
		res, fired, err := s.simulate(cfg, c)
		dt := time.Since(t0)
		if err == nil {
			err = s.check(i, cfg, res, t)
		}
		if err != nil {
			t.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d (%s %s %s): %v\n", i, c.workload, c.policy.Name, c.leveler, err)
			continue
		}
		ms := float64(dt.Nanoseconds()) / 1e6
		t.latMS = append(t.latMS, ms)
		k := i % len(s.cells)
		cellMS[k] = append(cellMS[k], ms)
		cellTicks[k] = append(cellTicks[k], res.Cycles)
		t.instrs += float64(cfg.Run.WarmupInstructions + cfg.Run.DetailedInstructions)
		t.addResult(res)
		t.events += float64(fired)
	}
	t.wall = time.Since(start)

	// The steady figures price one pass over the matrix with every cell
	// at its median: per-simulation times cluster by cell, so a median
	// over all simulations would sit on the edge between two clusters.
	var passMS, passTicks float64
	medians := make([]float64, len(s.cells))
	for k, c := range s.cells {
		if len(cellMS[k]) == 0 {
			return t // too short a run: endToEnd reports it
		}
		medians[k] = median(cellMS[k])
		passMS += medians[k]
		passTicks += median(cellTicks[k])
		fmt.Fprintf(os.Stderr, "perfbench: cell %s %s %s: %d runs, median %.3f ms\n",
			c.workload, c.policy.Name, c.leveler, len(cellMS[k]), medians[k])
	}
	t.opsPerS = float64(len(s.cells)) / (passMS / 1e3)
	t.simTicksPerS = passTicks / (passMS / 1e3)
	t.p50MS = median(medians)
	return t
}

// simulate runs one cell. The untraced run goes through the root
// package; the traced run builds the core.System itself to read the
// kernel's event count. Both execute the same simulation.
func (s *sweep) simulate(cfg mellow.Config, c cell) (mellow.Result, uint64, error) {
	if !s.traced {
		res, err := mellow.Run(cfg, c.policy, c.workload)
		return res, 0, err
	}
	w, err := trace.ByName(c.workload)
	if err != nil {
		return mellow.Result{}, 0, err
	}
	sys, err := core.NewSystem(cfg, c.policy, w)
	if err != nil {
		return mellow.Result{}, 0, err
	}
	res, err := sys.RunContext(context.Background())
	return res, sys.Kernel.Fired(), err
}

// check applies the result invariants and the twin comparison, and
// records the result hash for the digest.
func (s *sweep) check(i int, cfg mellow.Config, res mellow.Result, t *tally) error {
	if err := checkResult(res, cfg.Run.DetailedInstructions); err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %v", err)
	}
	h := sha256.Sum256(b)
	if len(t.digests) < t.digestOps {
		t.digests = append(t.digests, h)
	}
	n := len(s.cells)
	if (i/n)%2 == 0 {
		s.twins[i] = h
		return nil
	}
	want, ok := s.twins[i-n]
	delete(s.twins, i-n)
	if ok && want != h {
		return fmt.Errorf("result differs from its twin (operation %d, same inputs)", i-n)
	}
	return nil
}

func (s *sweep) close() error { return nil }

// maxRecordInstrs bounds one trace record (gap plus access). The core
// retires whole records, so a window ends at the first record boundary
// at or past its configured length; no builtin workload's record exceeds
// 1.5 × its mean gap + 1 ≤ 166 instructions.
const maxRecordInstrs = 256

// checkResult is the invariant every simulation result must pass.
func checkResult(r mellow.Result, detailed uint64) error {
	switch {
	case r.Instructions < detailed || r.Instructions-detailed >= maxRecordInstrs:
		return fmt.Errorf("measured %d instructions, configured window %d", r.Instructions, detailed)
	case math.IsNaN(r.IPC) || math.IsInf(r.IPC, 0) || r.IPC <= 0:
		return fmt.Errorf("IPC %v not finite and positive", r.IPC)
	case !(r.LifetimeYears() > 0):
		return fmt.Errorf("lifetime %v not positive", r.LifetimeYears())
	}
	nonNeg := map[string]float64{
		"Cycles": r.Cycles, "MPKI": r.MPKI, "EnergyPJ": r.Mem.EnergyPJ,
		"DrainFraction": r.Mem.DrainFraction, "AvgUtilization": r.Mem.AvgUtilization,
		"MaxBankDamage": r.Mem.MaxBankDamage,
	}
	for i, u := range r.Mem.BankUtilization {
		nonNeg[fmt.Sprintf("BankUtilization[%d]", i)] = u
	}
	for k, v := range nonNeg {
		if math.IsNaN(v) || v < 0 {
			return fmt.Errorf("%s = %v, want a non-negative number", k, v)
		}
	}
	return nil
}

// derive maps (seed, i) to a well-mixed nonzero seed (splitmix64).
func derive(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z ^ z>>31) | 1
}
