package experiments

import (
	"context"
	"fmt"

	"mellow/internal/core"
	"mellow/internal/policy"
	"mellow/internal/stats"
)

// tableCell derives one table cell from a result and its Norm baseline:
// the value a summary row averages, and the rendered text.
type tableCell = func(r, base core.Result) (value float64, text string)

// policyTable renders a one-configuration sweep as a table: a column per
// policy, a row per workload, plus a geomean row labelled summary unless
// summary is empty.
func policyTable(o Options, res Sweep, specs []policy.Spec, title, summary string, cell tableCell) error {
	t := stats.Table{
		Title:  title,
		Header: append([]string{"workload"}, policy.Names(specs)...),
	}
	sums := make([][]float64, len(specs))
	for _, w := range o.workloads() {
		base := res.At("", "Norm", w)
		row := []string{w}
		for i, s := range specs {
			v, text := cell(res.At("", s.Name, w), base)
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

func renderFig10(_ context.Context, o Options, s Sweep) error {
	return policyTable(o, s, policy.EvaluationSet(), "Figure 10: IPC by write policy (normalized to Norm)", "geomean",
		func(r, base core.Result) (float64, string) {
			v := r.IPC / base.IPC
			return v, stats.F(v, 3)
		})
}

func renderFig11(_ context.Context, o Options, s Sweep) error {
	if err := policyTable(o, s, policy.EvaluationSet(), "Figure 11: resistive memory lifetime by write policy (years)", "geomean",
		func(r, base core.Result) (float64, string) {
			y := r.LifetimeYears()
			return y, formatYears(y)
		}); err != nil {
		return err
	}
	// The paper plots Figure 11 on a log axis; render the headline
	// comparison that way for the default suite.
	bars := &stats.Bars{Title: "Figure 11 (log scale): Norm vs BE-Mellow+SC lifetime", Log: true}
	for _, w := range o.workloads() {
		n := s.At("", "Norm", w).LifetimeYears()
		b := s.At("", "BE-Mellow+SC", w).LifetimeYears()
		bars.Add(w+" Norm", n, formatYears(n)+"y")
		bars.Add(w+" BE-Mellow+SC", b, formatYears(b)+"y")
	}
	fmt.Fprintln(o.Out)
	return bars.Fprint(o.Out)
}

func renderFig12(_ context.Context, o Options, s Sweep) error {
	return policyTable(o, s, policy.EvaluationSet(), "Figure 12: average bank utilization by write policy", "geomean",
		func(r, base core.Result) (float64, string) {
			u := r.Mem.AvgUtilization
			return u, stats.Pct(u)
		})
}

func renderFig13(_ context.Context, o Options, s Sweep) error {
	return policyTable(o, s, policy.EvaluationSet(), "Figure 13: fraction of time in write drain", "",
		func(r, base core.Result) (float64, string) {
			f := r.Mem.DrainFraction
			return f, stats.Pct(f)
		})
}

// renderFig14 shows the LLC-side request mix: demand fetches, ordinary
// dirty write-backs, and eager write-backs, normalized to Norm's total.
func renderFig14(_ context.Context, o Options, s Sweep) error {
	return policyTable(o, s, policy.EvaluationSet(), "Figure 14: memory requests from LLC, normalized to Norm total "+
		"(read / writeback / eager)", "",
		func(r, base core.Result) (float64, string) {
			c, b := r.Cache, base.Cache
			baseTotal := float64(b.MemFetches + b.MemWritebacks + b.EagerIssued)
			return 0, fmt.Sprintf("%.2f/%.2f/%.2f", float64(c.MemFetches)/baseTotal,
				float64(c.MemWritebacks)/baseTotal, float64(c.EagerIssued)/baseTotal)
		})
}

// renderFig15 shows requests actually serviced by banks — including
// cancelled write attempts and Start-Gap migrations — normalized to Norm.
func renderFig15(_ context.Context, o Options, s Sweep) error {
	return policyTable(o, s, policy.EvaluationSet(), "Figure 15: requests issued to memory banks (normalized to Norm)", "geomean",
		func(r, base core.Result) (float64, string) {
			v := float64(r.Mem.BankAttempts) / float64(base.Mem.BankAttempts)
			return v, stats.F(v, 3)
		})
}

func renderFig16(_ context.Context, o Options, s Sweep) error {
	return policyTable(o, s, policy.EvaluationSet(), "Figure 16: main memory energy (CellC, normalized to Norm)", "geomean",
		func(r, base core.Result) (float64, string) {
			v := r.Mem.EnergyPJ / base.Mem.EnergyPJ
			return v, stats.F(v, 3)
		})
}
