package experiments

import (
	"context"
	"fmt"

	"mellow/internal/cache"
	"mellow/internal/core"
	"mellow/internal/nvm"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/stats"
	"mellow/internal/trace"
)

// renderTable4 regenerates Table IV: LLC MPKI per workload, measured
// the way the paper does — demand misses of a 2 MB LLC, no prefetcher in
// the path (the trace drives the hierarchy functionally).
func renderTable4(ctx context.Context, o Options, _ Sweep) error {
	t := stats.Table{
		Title:  "Table IV: workloads and their MPKI (2 MB LLC)",
		Header: []string{"workload", "paper", "measured"},
	}
	for _, name := range o.workloads() {
		w, err := trace.ByName(name)
		if err != nil {
			return err
		}
		h := cache.NewHierarchy(o.Cfg.Caches, rng.New(o.Cfg.Run.Seed))
		g := w.New(o.Cfg.Run.Seed)
		_, err = walkTrace(ctx, h, g, o.Cfg.Run.WarmupInstructions)
		h.ResetStats()
		var instr uint64
		if err == nil {
			instr, err = walkTrace(ctx, h, g, o.Cfg.Run.DetailedInstructions)
		}
		misses := h.Snapshot().LLCMisses
		h.Release()
		if err != nil {
			return err
		}
		mpki := float64(misses) / (float64(instr) / 1000)
		t.AddRow(name, stats.F(w.TargetMPKI, 2), stats.F(mpki, 2))
	}
	return t.Fprint(o.Out)
}

// walkTrace feeds g's accesses to h until at least n instructions have
// run and returns how many did. It polls ctx every 4096 accesses and
// stops with ctx's error when ctx ends.
func walkTrace(ctx context.Context, h *cache.Hierarchy, g trace.Generator, n uint64) (uint64, error) {
	var instr uint64
	for i := 0; instr < n; i++ {
		if i&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return instr, err
			}
		}
		op := g.Next()
		instr += uint64(op.Gap) + 1
		h.Access(op.Addr, op.Write)
	}
	return instr, nil
}

// renderTable6 regenerates Table VI from the nvsim-lite model.
func renderTable6(_ context.Context, o Options, _ Sweep) error {
	t := stats.Table{
		Title: "Table VI: energy per operation of memristive main memory",
		Header: []string{"cell", "buffer read (pJ)", "norm write (pJ)",
			"slow write (pJ)", "slow/norm ratio"},
	}
	for _, c := range nvm.Cells() {
		m := nvm.EnergyModel{Cell: c}
		t.AddRow(c.String(),
			stats.F(m.BufferReadEnergyPJ(), 1),
			stats.F(m.WriteEnergyPJ(nvm.WriteNormal), 1),
			stats.F(m.WriteEnergyPJ(nvm.WriteSlow30), 1),
			stats.F(m.SlowNormalRatio(), 2))
	}
	return t.Fprint(o.Out)
}

// renderFig1 regenerates Figure 1: endurance versus write-latency
// multiplier for five ExpoFactor curves.
func renderFig1(_ context.Context, o Options, _ Sweep) error {
	expos := []float64{1.0, 1.5, 2.0, 2.5, 3.0}
	t := stats.Table{
		Title:  "Figure 1: endurance vs write latency (base 150 ns, 5e6 writes)",
		Header: []string{"latency mult"},
	}
	for _, e := range expos {
		t.Header = append(t.Header, fmt.Sprintf("Expo=%.1f", e))
	}
	for _, n := range []float64{1.0, 1.5, 2.0, 2.5, 3.0} {
		row := []string{fmt.Sprintf("%.1fx (%.0f ns)", n, 150*n)}
		for _, e := range expos {
			d := o.Cfg.Memory.Device
			d.ExpoFactor = e
			row = append(row, fmt.Sprintf("%.3g", d.EnduranceAt(n)))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// fig2Specs is the static-latency grid of the motivation study: each
// write latency with and without write cancellation.
func fig2Specs() []policy.Spec {
	modes := []nvm.WriteMode{nvm.WriteNormal, nvm.WriteSlow15, nvm.WriteSlow20, nvm.WriteSlow30}
	var specs []policy.Spec
	for _, m := range modes {
		var base policy.Spec
		if m == nvm.WriteNormal {
			base = policy.Norm()
		} else {
			base = policy.Slow().WithSlowMode(m)
		}
		specs = append(specs, base)
		if m == nvm.WriteNormal {
			specs = append(specs, base.WithNC())
		} else {
			specs = append(specs, base.WithSC())
		}
	}
	return specs
}

// renderFig2 regenerates Figure 2: normalized IPC and lifetime for
// static write latencies, with and without write cancellation.
func renderFig2(_ context.Context, o Options, res Sweep) error {
	specs := fig2Specs()
	if err := policyTable(o, res, specs, "Figure 2 (top): IPC normalized to 1.0x writes without cancellation", "",
		func(r, base core.Result) (float64, string) { return 0, stats.F(r.IPC/base.IPC, 3) }); err != nil {
		return err
	}
	fmt.Fprintln(o.Out)
	return policyTable(o, res, specs, "Figure 2 (bottom): lifetime in years", "",
		func(r, _ core.Result) (float64, string) { return 0, formatYears(r.LifetimeYears()) })
}

// normOnly is Figure 3's line-up: normal writes alone.
func normOnly() []policy.Spec { return []policy.Spec{policy.Norm()} }

// renderFig3 regenerates Figure 3: average bank utilization under
// normal writes.
func renderFig3(_ context.Context, o Options, res Sweep) error {
	bars := &stats.Bars{Title: "Figure 3: average bank utilization with normal writes"}
	for _, w := range o.workloads() {
		u := res.At("", "Norm", w).Mem.AvgUtilization
		bars.Add(w, u, stats.Pct(u))
	}
	return bars.Fprint(o.Out)
}

// formatYears renders a lifetime, capping the display of effectively
// unbounded values.
func formatYears(y float64) string {
	if y > 1e4 {
		return ">10000"
	}
	return stats.F(y, 2)
}
