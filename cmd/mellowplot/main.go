// Command mellowplot renders the paper's main evaluation figures as SVG
// bar charts (the plain-text analogues live in mellowbench). It runs the
// Figures 10–16 policy sweep (experiments.EvalSweep) once and writes
// one file per figure.
//
// Usage:
//
//	mellowplot -out figures/            # full settings (minutes)
//	mellowplot -out figures/ -quick -workloads stream,lbm,gups
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/experiments"
	"mellow/internal/policy"
	"mellow/internal/stats"
	"mellow/internal/trace"
)

func main() {
	var (
		out       = flag.String("out", "figures", "output directory for SVG files")
		quick     = flag.Bool("quick", false, "scale run lengths down ~10x")
		workloads = flag.String("workloads", "", "comma-separated subset of the suite")
		seed      = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Parse()

	cfg := config.Default()
	cfg.Run.Seed = *seed
	if *quick {
		cfg.Run.WarmupInstructions = 1_000_000
		cfg.Run.DetailedInstructions = 3_000_000
	}
	suite := trace.Names()
	if *workloads != "" {
		suite = strings.Split(*workloads, ",")
	}
	cells, err := experiments.EvalSweep(experiments.Options{Cfg: cfg, Workloads: suite})
	if err != nil {
		fatal(err)
	}
	ins, err := experiments.RunCells(context.Background(), cells, experiments.Hooks{})
	if err != nil {
		fatal(err)
	}
	res, specs := experiments.NewSweep(cells, ins), policy.EvaluationSet()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	figures := []struct {
		file, title, ylabel string
		log                 bool
		value               func(r, base core.Result) float64
	}{
		{"fig10_ipc.svg", "Figure 10: IPC by write policy (normalized to Norm)", "IPC vs Norm", false,
			func(r, base core.Result) float64 { return r.IPC / base.IPC }},
		{"fig11_lifetime.svg", "Figure 11: memory lifetime by write policy", "years (log)", true,
			func(r, base core.Result) float64 { return r.LifetimeYears() }},
		{"fig12_utilization.svg", "Figure 12: average bank utilization", "busy fraction", false,
			func(r, base core.Result) float64 { return r.Mem.AvgUtilization }},
		{"fig13_drain.svg", "Figure 13: time in write drain", "fraction of time", false,
			func(r, base core.Result) float64 { return r.Mem.DrainFraction }},
		{"fig15_bankreqs.svg", "Figure 15: requests issued to banks (normalized)", "vs Norm", false,
			func(r, base core.Result) float64 {
				return float64(r.Mem.BankAttempts) / float64(base.Mem.BankAttempts)
			}},
		{"fig16_energy.svg", "Figure 16: main memory energy (normalized)", "vs Norm", false,
			func(r, base core.Result) float64 { return r.Mem.EnergyPJ / base.Mem.EnergyPJ }},
	}
	for _, f := range figures {
		g := &stats.GroupedBars{Title: f.title, YLabel: f.ylabel, Series: policy.Names(specs), Log: f.log}
		for _, w := range suite {
			base := res.At("", "Norm", w)
			var vals []float64
			for _, s := range specs {
				vals = append(vals, f.value(res.At("", s.Name, w), base))
			}
			g.AddGroup(w, vals...)
		}
		path := filepath.Join(*out, f.file)
		fh, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if _, err := g.WriteTo(fh); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mellowplot:", err)
	os.Exit(1)
}
