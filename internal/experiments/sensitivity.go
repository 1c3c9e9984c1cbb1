package experiments

import (
	"fmt"
	"math"

	"mellow/internal/policy"
	"mellow/internal/stats"
)

// runFig17 regenerates Figure 17: geometric-mean lifetime of Slow+SC and
// BE-Mellow+SC across the suite as the latency/endurance ExpoFactor
// sweeps 1.0–3.0, with Norm as the (ExpoFactor-independent) reference.
func runFig17(o Options) error {
	expos := []float64{1.0, 1.5, 2.0, 2.5, 3.0}
	specs := []policy.Spec{policy.Norm(), policy.Slow().WithSC(), policy.BEMellow().WithSC()}
	t := stats.Table{
		Title:  "Figure 17: lifetime (geomean years) vs ExpoFactor",
		Header: []string{"ExpoFactor", "Norm", "Slow+SC", "BE-Mellow+SC", "BE-Mellow+SC/Norm"},
	}
	for _, e := range expos {
		cfg := o.Cfg
		cfg.Memory.Device.ExpoFactor = e
		res, err := runGrid(o, cfg, o.workloads(), specs)
		if err != nil {
			return err
		}
		geo := func(name string) float64 {
			var ys []float64
			for _, w := range o.workloads() {
				y := res[[2]string{name, w}].LifetimeYears()
				if !math.IsInf(y, 1) {
					ys = append(ys, y)
				}
			}
			return stats.Geomean(ys)
		}
		norm, slow, be := geo("Norm"), geo("Slow+SC"), geo("BE-Mellow+SC")
		t.AddRow(fmt.Sprintf("%.1f", e), stats.F(norm, 2), stats.F(slow, 2),
			stats.F(be, 2), stats.F(be/norm, 2)+"x")
	}
	return t.Fprint(o.Out)
}

// runFig18 regenerates Figure 18: GemsFDTD under 4, 8 and 16 banks —
// (a) lifetime, (b) bank utilization, (c) eager writes, (d) writes
// issued to banks by pulse.
func runFig18(o Options) error {
	const workload = "GemsFDTD"
	specs := []policy.Spec{policy.Norm(), policy.BEMellow().WithSC()}
	t := stats.Table{
		Title: "Figure 18: GemsFDTD vs bank-level parallelism",
		Header: []string{"banks", "policy", "lifetime (y)", "bank util",
			"eager writes", "normal writes", "slow writes", "cancelled"},
	}
	for _, banks := range []int{16, 8, 4} {
		cfg, err := o.Cfg.WithBanks(banks)
		if err != nil {
			return err
		}
		res, err := runGrid(o, cfg, []string{workload}, specs)
		if err != nil {
			return err
		}
		for _, s := range specs {
			r := res[[2]string{s.Name, workload}]
			t.AddRow(fmt.Sprintf("%d", banks), s.Name,
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
	res, err := runGrid(o, o.Cfg, o.workloads(), append(statics, ours, policy.Norm()))
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
		base := res[[2]string{"Norm", w}]
		bestName, bestIPC, bestLife := "(none)", 0.0, 0.0
		for _, s := range statics {
			r := res[[2]string{s.Name, w}]
			if r.LifetimeYears() < floor {
				continue
			}
			if r.IPC > bestIPC {
				bestName, bestIPC, bestLife = s.Name, r.IPC, r.LifetimeYears()
			}
		}
		mine := res[[2]string{ours.Name, w}]
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
