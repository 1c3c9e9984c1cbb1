package experiments

import (
	"context"
	"fmt"
	"math"

	"mellow/internal/config"
	"mellow/internal/policy"
	"mellow/internal/stats"
)

// fig17Cells declares Figure 17: Norm, Slow+SC and BE-Mellow+SC over
// the suite under each latency/endurance ExpoFactor.
func fig17Cells(o Options) ([]Cell, error) {
	var vs []variant
	for _, e := range []float64{1.0, 1.5, 2.0, 2.5, 3.0} {
		vs = append(vs, o.vary(fmt.Sprintf("%.1f", e),
			func(c *config.Config) { c.Memory.Device.ExpoFactor = e }))
	}
	return o.grid(o.workloads(), []policy.Spec{policy.Norm(), policy.Slow().WithSC(), policy.BEMellow().WithSC()}, vs...)
}

// renderFig17 regenerates Figure 17: geometric-mean lifetime of Slow+SC
// and BE-Mellow+SC across the suite as the ExpoFactor sweeps 1.0–3.0,
// with Norm as the (ExpoFactor-independent) reference.
func renderFig17(_ context.Context, o Options, res Sweep) error {
	t := stats.Table{
		Title:  "Figure 17: lifetime (geomean years) vs ExpoFactor",
		Header: []string{"ExpoFactor", "Norm", "Slow+SC", "BE-Mellow+SC", "BE-Mellow+SC/Norm"},
	}
	for _, label := range res.variants {
		geo := func(name string) float64 {
			var ys []float64
			for _, w := range o.workloads() {
				y := res.At(label, name, w).LifetimeYears()
				if !math.IsInf(y, 1) {
					ys = append(ys, y)
				}
			}
			return stats.Geomean(ys)
		}
		norm, slow, be := geo("Norm"), geo("Slow+SC"), geo("BE-Mellow+SC")
		t.AddRow(label, stats.F(norm, 2), stats.F(slow, 2),
			stats.F(be, 2), stats.F(be/norm, 2)+"x")
	}
	return t.Fprint(o.Out)
}

// fig18Specs are the policies Figure 18 runs on GemsFDTD.
func fig18Specs() []policy.Spec { return []policy.Spec{policy.Norm(), policy.BEMellow().WithSC()} }

// fig18Cells declares Figure 18: GemsFDTD under each bank count.
func fig18Cells(o Options) ([]Cell, error) {
	var vs []variant
	for _, banks := range []int{16, 8, 4} {
		cfg, err := o.Cfg.WithBanks(banks)
		if err != nil {
			return nil, err
		}
		vs = append(vs, variant{fmt.Sprintf("%d", banks), cfg})
	}
	return o.grid([]string{"GemsFDTD"}, fig18Specs(), vs...)
}

// renderFig18 regenerates Figure 18: GemsFDTD under 4, 8 and 16 banks —
// (a) lifetime, (b) bank utilization, (c) eager writes, (d) writes
// issued to banks by pulse.
func renderFig18(_ context.Context, o Options, res Sweep) error {
	t := stats.Table{
		Title: "Figure 18: GemsFDTD vs bank-level parallelism",
		Header: []string{"banks", "policy", "lifetime (y)", "bank util",
			"eager writes", "normal writes", "slow writes", "cancelled"},
	}
	for _, banks := range res.variants {
		for _, s := range fig18Specs() {
			r := res.At(banks, s.Name, "GemsFDTD")
			t.AddRow(banks, s.Name,
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
	// Eager variants of the static policies.
	return append(fig2Specs(), policy.ENorm().WithNC(), policy.ESlow().WithSC())
}

// fig19Ours is the policy Figure 19 measures against the statics.
func fig19Ours() policy.Spec { return policy.BEMellow().WithSC().WithWQ() }

// fig19Specs is Figure 19's line-up: the statics, then ours.
func fig19Specs() []policy.Spec { return append(fig19Statics(), fig19Ours()) }

// renderFig19 regenerates Figure 19: for each workload, find the best
// static mechanism that guarantees the 8-year lifetime and compare it
// with BE-Mellow+SC+WQ.
func renderFig19(_ context.Context, o Options, res Sweep) error {
	statics, ours := fig19Statics(), fig19Ours()
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
