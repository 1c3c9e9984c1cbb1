package experiments

import (
	"fmt"
	"math"

	"mellow/internal/config"
	"mellow/internal/policy"
	"mellow/internal/stats"
)

// runFig17 regenerates Figure 17: geometric-mean lifetime of Slow+SC and
// BE-Mellow+SC across the suite as the latency/endurance ExpoFactor
// sweeps 1.0–3.0, with Norm as the (ExpoFactor-independent) reference.
func runFig17(o Options) error {
	m := matrix{
		workloads: o.workloads(),
		specs:     []policy.Spec{policy.Norm(), policy.Slow().WithSC(), policy.BEMellow().WithSC()},
	}
	for _, e := range []float64{1.0, 1.5, 2.0, 2.5, 3.0} {
		m.variants = append(m.variants, o.vary(fmt.Sprintf("%.1f", e),
			func(c *config.Config) { c.Memory.Device.ExpoFactor = e }))
	}
	res, err := runMatrices(o, m)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title:  "Figure 17: lifetime (geomean years) vs ExpoFactor",
		Header: []string{"ExpoFactor", "Norm", "Slow+SC", "BE-Mellow+SC", "BE-Mellow+SC/Norm"},
	}
	for _, v := range m.variants {
		geo := func(name string) float64 {
			var ys []float64
			for _, w := range m.workloads {
				y := res.At(v.label, name, w).LifetimeYears()
				if !math.IsInf(y, 1) {
					ys = append(ys, y)
				}
			}
			return stats.Geomean(ys)
		}
		norm, slow, be := geo("Norm"), geo("Slow+SC"), geo("BE-Mellow+SC")
		t.AddRow(v.label, stats.F(norm, 2), stats.F(slow, 2),
			stats.F(be, 2), stats.F(be/norm, 2)+"x")
	}
	return t.Fprint(o.Out)
}

// runFig18 regenerates Figure 18: GemsFDTD under 4, 8 and 16 banks —
// (a) lifetime, (b) bank utilization, (c) eager writes, (d) writes
// issued to banks by pulse.
func runFig18(o Options) error {
	const workload = "GemsFDTD"
	m := matrix{
		workloads: []string{workload},
		specs:     []policy.Spec{policy.Norm(), policy.BEMellow().WithSC()},
	}
	for _, banks := range []int{16, 8, 4} {
		cfg, err := o.Cfg.WithBanks(banks)
		if err != nil {
			return err
		}
		m.variants = append(m.variants, variant{fmt.Sprintf("%d", banks), cfg})
	}
	res, err := runMatrices(o, m)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title: "Figure 18: GemsFDTD vs bank-level parallelism",
		Header: []string{"banks", "policy", "lifetime (y)", "bank util",
			"eager writes", "normal writes", "slow writes", "cancelled"},
	}
	for _, v := range m.variants {
		for _, s := range m.specs {
			r := res.At(v.label, s.Name, workload)
			t.AddRow(v.label, s.Name,
				formatYears(r.LifetimeYears()),
				stats.Pct(r.Mem.AvgUtilization),
				fmt.Sprintf("%d", r.Mem.EagerDone),
				fmt.Sprintf("%d", r.Mem.WritesByMode[0]),
				fmt.Sprintf("%d", r.Mem.SlowWrites()),
				fmt.Sprintf("%d", r.Mem.TotalCancelled()))
		}
	}
	return t.Fprint(o.Out)
}

// fig19Statics is the static-mechanism grid Figure 19 compares against:
// every write latency, plain / cancellable / eager+cancellable.
func fig19Statics() []policy.Spec {
	var specs []policy.Spec
	for _, s := range fig2Specs() {
		specs = append(specs, s)
	}
	// Eager variants of the static policies.
	specs = append(specs, policy.ENorm().WithNC(), policy.ESlow().WithSC())
	return specs
}

// runFig19 regenerates Figure 19: for each workload, find the best
// static mechanism that guarantees the 8-year lifetime and compare it
// with BE-Mellow+SC+WQ.
func runFig19(o Options) error {
	statics := fig19Statics()
	ours := policy.BEMellow().WithSC().WithWQ()
	res, err := runMatrices(o, o.base(append(statics, ours)...))
	if err != nil {
		return err
	}
	const floor = 8.0
	t := stats.Table{
		Title: "Figure 19: BE-Mellow+SC+WQ vs best static mechanism " +
			"(IPC normalized to Norm; best static must reach 8 years)",
		Header: []string{"workload", "best static", "static IPC", "static life",
			"ours IPC", "ours life", "ours >= static"},
	}
	wins := 0
	for _, w := range o.workloads() {
		base := res.At("", "Norm", w)
		bestName, bestIPC, bestLife := "(none)", 0.0, 0.0
		for _, s := range statics {
			r := res.At("", s.Name, w)
			if r.LifetimeYears() < floor {
				continue
			}
			if r.IPC > bestIPC {
				bestName, bestIPC, bestLife = s.Name, r.IPC, r.LifetimeYears()
			}
		}
		mine := res.At("", ours.Name, w)
		ok := mine.IPC >= bestIPC*0.995
		if ok {
			wins++
		}
		t.AddRow(w, bestName,
			stats.F(bestIPC/base.IPC, 3), formatYears(bestLife),
			stats.F(mine.IPC/base.IPC, 3), formatYears(mine.LifetimeYears()),
			fmt.Sprintf("%v", ok))
	}
	t.AddRow(fmt.Sprintf("wins: %d/%d", wins, len(o.workloads())))
	return t.Fprint(o.Out)
}
