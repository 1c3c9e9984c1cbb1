package experiments

import (
	"fmt"

	"mellow/internal/cache"
	"mellow/internal/nvm"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/stats"
	"mellow/internal/trace"
)

// runTable4 regenerates Table IV: LLC MPKI per workload, measured the
// way the paper does — demand misses of a 2 MB LLC, no prefetcher in the
// path (the trace drives the hierarchy functionally).
func runTable4(o Options) error {
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
		var instr uint64
		for instr < o.Cfg.Run.WarmupInstructions {
			op := g.Next()
			instr += uint64(op.Gap) + 1
			h.Access(op.Addr, op.Write)
		}
		h.ResetStats()
		instr = 0
		for instr < o.Cfg.Run.DetailedInstructions {
			op := g.Next()
			instr += uint64(op.Gap) + 1
			h.Access(op.Addr, op.Write)
		}
		mpki := float64(h.Snapshot().LLCMisses) / (float64(instr) / 1000)
		t.AddRow(name, stats.F(w.TargetMPKI, 2), stats.F(mpki, 2))
	}
	return t.Fprint(o.Out)
}

// runTable6 regenerates Table VI from the nvsim-lite model.
func runTable6(o Options) error {
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

// runFig1 regenerates Figure 1: endurance versus write-latency
// multiplier for five ExpoFactor curves.
func runFig1(o Options) error {
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

// runFig2 regenerates Figure 2: normalized IPC and lifetime for static
// write latencies, with and without write cancellation.
func runFig2(o Options) error {
	specs := fig2Specs()
	res, err := runGrid(o, o.Cfg, o.workloads(), specs)
	if err != nil {
		return err
	}
	ipc := stats.Table{
		Title:  "Figure 2 (top): IPC normalized to 1.0x writes without cancellation",
		Header: append([]string{"workload"}, policy.Names(specs)...),
	}
	life := stats.Table{
		Title:  "Figure 2 (bottom): lifetime in years",
		Header: append([]string{"workload"}, policy.Names(specs)...),
	}
	for _, w := range o.workloads() {
		base := res[[2]string{"Norm", w}]
		ipcRow, lifeRow := []string{w}, []string{w}
		for _, s := range specs {
			r := res[[2]string{s.Name, w}]
			ipcRow = append(ipcRow, stats.F(r.IPC/base.IPC, 3))
			lifeRow = append(lifeRow, formatYears(r.LifetimeYears()))
		}
		ipc.AddRow(ipcRow...)
		life.AddRow(lifeRow...)
	}
	if err := ipc.Fprint(o.Out); err != nil {
		return err
	}
	fmt.Fprintln(o.Out)
	return life.Fprint(o.Out)
}

// runFig3 regenerates Figure 3: average bank utilization under normal
// writes.
func runFig3(o Options) error {
	res, err := runGrid(o, o.Cfg, o.workloads(), []policy.Spec{policy.Norm()})
	if err != nil {
		return err
	}
	bars := &stats.Bars{Title: "Figure 3: average bank utilization with normal writes"}
	for _, w := range o.workloads() {
		u := res[[2]string{"Norm", w}].Mem.AvgUtilization
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
