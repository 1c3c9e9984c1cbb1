package experiments

import (
	"fmt"

	"mellow/internal/core"
	"mellow/internal/policy"
	"mellow/internal/stats"
)

// evalTable renders one Figure 10–16 style table: a column per policy of
// the evaluation set, a row per workload plus a summary row.
func evalTable(o Options, title, summary string,
	cell func(r, base core.Result) (value float64, text string)) error {
	res, specs, err := EvalSweep(o)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title:  title,
		Header: append([]string{"workload"}, policy.Names(specs)...),
	}
	sums := make([][]float64, len(specs))
	for _, w := range o.workloads() {
		base := res[[2]string{"Norm", w}]
		row := []string{w}
		for i, s := range specs {
			v, text := cell(res[[2]string{s.Name, w}], base)
			sums[i] = append(sums[i], v)
			row = append(row, text)
		}
		t.AddRow(row...)
	}
	if summary != "" {
		row := []string{summary}
		for i := range specs {
			row = append(row, stats.F(stats.Geomean(sums[i]), 3))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

func runFig10(o Options) error {
	return evalTable(o, "Figure 10: IPC by write policy (normalized to Norm)", "geomean",
		func(r, base core.Result) (float64, string) {
			v := r.IPC / base.IPC
			return v, stats.F(v, 3)
		})
}

func runFig11(o Options) error {
	if err := evalTable(o, "Figure 11: resistive memory lifetime by write policy (years)", "geomean",
		func(r, base core.Result) (float64, string) {
			y := r.LifetimeYears()
			return y, formatYears(y)
		}); err != nil {
		return err
	}
	// The paper plots Figure 11 on a log axis; render the headline
	// comparison that way for the default suite.
	res, _, err := EvalSweep(o)
	if err != nil {
		return err
	}
	bars := &stats.Bars{Title: "Figure 11 (log scale): Norm vs BE-Mellow+SC lifetime", Log: true}
	for _, w := range o.workloads() {
		n := res[[2]string{"Norm", w}].LifetimeYears()
		b := res[[2]string{"BE-Mellow+SC", w}].LifetimeYears()
		bars.Add(w+" Norm", n, formatYears(n)+"y")
		bars.Add(w+" BE-Mellow+SC", b, formatYears(b)+"y")
	}
	fmt.Fprintln(o.Out)
	return bars.Fprint(o.Out)
}

func runFig12(o Options) error {
	return evalTable(o, "Figure 12: average bank utilization by write policy", "geomean",
		func(r, base core.Result) (float64, string) {
			u := r.Mem.AvgUtilization
			return u, stats.Pct(u)
		})
}

func runFig13(o Options) error {
	return evalTable(o, "Figure 13: fraction of time in write drain", "",
		func(r, base core.Result) (float64, string) {
			f := r.Mem.DrainFraction
			return f, stats.Pct(f)
		})
}

// runFig14 shows the LLC-side request mix: demand fetches, ordinary
// dirty write-backs, and eager write-backs, normalized to Norm's total.
func runFig14(o Options) error {
	res, specs, err := EvalSweep(o)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title: "Figure 14: memory requests from LLC, normalized to Norm total " +
			"(read / writeback / eager)",
		Header: append([]string{"workload"}, policy.Names(specs)...),
	}
	for _, w := range o.workloads() {
		base := res[[2]string{"Norm", w}]
		baseTotal := float64(base.Cache.MemFetches + base.Cache.MemWritebacks + base.Cache.EagerIssued)
		row := []string{w}
		for _, s := range specs {
			r := res[[2]string{s.Name, w}]
			c := r.Cache
			row = append(row, fmt.Sprintf("%.2f/%.2f/%.2f",
				float64(c.MemFetches)/baseTotal,
				float64(c.MemWritebacks)/baseTotal,
				float64(c.EagerIssued)/baseTotal))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// runFig15 shows requests actually serviced by banks — including
// cancelled write attempts and Start-Gap migrations — normalized to Norm.
func runFig15(o Options) error {
	return evalTable(o, "Figure 15: requests issued to memory banks (normalized to Norm)", "geomean",
		func(r, base core.Result) (float64, string) {
			v := float64(r.Mem.BankAttempts) / float64(base.Mem.BankAttempts)
			return v, stats.F(v, 3)
		})
}

func runFig16(o Options) error {
	return evalTable(o, "Figure 16: main memory energy (CellC, normalized to Norm)", "geomean",
		func(r, base core.Result) (float64, string) {
			v := r.Mem.EnergyPJ / base.Mem.EnergyPJ
			return v, stats.F(v, 3)
		})
}
