package experiments

import (
	"fmt"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/nvm"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/stats"
	"mellow/internal/trace"
	"mellow/internal/wear"
)

// The ext* experiments go beyond the paper's figures: they implement the
// design-space explorations §VI-I and §VIII name as future work, plus
// ablations of the parameters DESIGN.md calls out.

func init() {
	registry = append(registry,
		Experiment{"ext1", "Extension: multi-latency Mellow Writes (§VIII future work)", runExt1},
		Experiment{"ext2", "Extension: dead-block (decay) prediction for eager write-backs (§VII)", runExt2},
		Experiment{"ext3", "Ablation: eager queue depth, drain thresholds, Start-Gap psi", runExt3},
		Experiment{"ext4", "Extension: write pausing vs write cancellation", runExt4},
		Experiment{"ext5", "Validation: Start-Gap leveling efficiency vs the 0.9 assumption", runExt5},
		Experiment{"ext6", "Extension: multiprogrammed mixes sharing the memory system", runExt6},
		Experiment{"ext7", "Extension: technology corners (PCM-like, high/low-endurance ReRAM)", runExt7},
		Experiment{"ext8", "Extension: Mellow policies x wear-leveling backends (Start-Gap, WoLFRaM, SoftWear)", runExt8},
	)
}

// runExt1 compares the two-pulse BE-Mellow+SC against the graded
// multi-latency variant (+ML), which §VI-I suggests for the benchmarks
// where a fixed 3× pulse is too blunt.
func runExt1(o Options) error {
	specs := []policy.Spec{
		policy.Norm(),
		policy.BEMellow().WithSC(),
		policy.BEMellow().WithSC().WithML(),
		policy.BEMellow().WithSC().WithWQ(),
		policy.BEMellow().WithSC().WithML().WithWQ(),
	}
	return suiteTable(o, specs, "Extension 1: graded write pulses (IPC vs Norm / lifetime years)", "",
		func(r, base core.Result) (float64, string) {
			return 0, fmt.Sprintf("%.2f/%s", r.IPC/base.IPC, formatYears(r.LifetimeYears()))
		})
}

// runExt2 swaps the eager-candidate predictor: the paper's LRU-position
// profiler versus timeout-style dead-block (decay) prediction.
func runExt2(o Options) error {
	spec := policy.BEMellow().WithSC()
	predictors := matrix{workloads: o.workloads(), specs: []policy.Spec{spec}, variants: []variant{
		o.vary("lru-profile (paper)", func(c *config.Config) { c.Caches.EagerPredictor = cache.PredictorLRUProfile }),
		o.vary("decay (dead-block)", func(c *config.Config) { c.Caches.EagerPredictor = cache.PredictorDecay }),
	}}
	// Each predictor is compared with the Norm baseline on the default config.
	res, err := runMatrices(o, o.base(policy.Norm()), predictors)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title: "Extension 2: eager-candidate predictor " +
			"(IPC vs Norm / lifetime years / wasted eager writes)",
		Header: []string{"workload", predictors.variants[0].label, predictors.variants[1].label},
	}
	for _, w := range o.workloads() {
		base := res.At("", "Norm", w)
		row := []string{w}
		for _, v := range predictors.variants {
			r := res.At(v.label, spec.Name, w)
			row = append(row, fmt.Sprintf("%.2f/%s/%d",
				r.IPC/base.IPC, formatYears(r.LifetimeYears()), r.Cache.WastedEager))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// runExt3 ablates the controller parameters the design fixes by fiat:
// the 16-entry eager queue, the 16/32 drain thresholds and Start-Gap's
// gap-move interval psi.
func runExt3(o Options) error {
	spec := policy.BEMellow().WithSC()
	workload := "GemsFDTD"
	if ws := o.workloads(); len(ws) > 0 {
		workload = ws[0]
	}
	m := matrix{
		variants: []variant{
			o.vary("baseline (eq=16, drain 16/32, psi=100)", func(*config.Config) {}),
			o.vary("eager queue 4", func(c *config.Config) { c.Memory.EagerQueue = 4 }),
			o.vary("eager queue 64", func(c *config.Config) { c.Memory.EagerQueue = 64 }),
			o.vary("drain thresholds 8/16", func(c *config.Config) { c.Memory.DrainLow, c.Memory.DrainHigh = 8, 16 }),
			o.vary("drain thresholds 24/32", func(c *config.Config) { c.Memory.DrainLow = 24 }),
			o.vary("Start-Gap psi 10", func(c *config.Config) { c.Memory.StartGapPsi = 10 }),
			o.vary("Start-Gap psi 1000", func(c *config.Config) { c.Memory.StartGapPsi = 1000 }),
			o.vary("2 channels", func(c *config.Config) { c.Memory.Channels = 2 }),
			o.vary("FR-FCFS reads", func(c *config.Config) { c.Memory.Scheduler = "frfcfs" }),
			o.vary("profile period 100us", func(c *config.Config) { c.Caches.ProfilePeriod /= 5 }),
			o.vary("useless threshold 1/8", func(c *config.Config) { c.Caches.UselessHitRatio = 1.0 / 8.0 }),
		},
		workloads: []string{workload},
		specs:     []policy.Spec{spec},
	}
	res, err := runMatrices(o, m)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title:  fmt.Sprintf("Extension 3: parameter ablations (%s, BE-Mellow+SC)", workload),
		Header: []string{"variant", "IPC", "lifetime (y)", "eager done", "drain time", "gap moves"},
	}
	for _, v := range m.variants {
		r := res.At(v.label, spec.Name, workload)
		t.AddRow(v.label, stats.F(r.IPC, 3), formatYears(r.LifetimeYears()),
			fmt.Sprintf("%d", r.Mem.EagerDone), stats.Pct(r.Mem.DrainFraction),
			fmt.Sprintf("%d", r.Mem.GapMoves))
	}
	return t.Fprint(o.Out)
}

// runExt4 compares read-preemption mechanisms: cancellation (+SC/+NC,
// the paper's choice) redoes the aborted pulse and wears the cell for
// the wasted fraction; pausing (+WP) resumes it. Qureshi et al. (HPCA
// 2010) introduced both; the paper adopts cancellation (§VII).
func runExt4(o Options) error {
	specs := []policy.Spec{
		policy.Norm(),
		policy.Slow(),
		policy.Slow().WithSC(),
		policy.Slow().WithWP(),
		policy.BEMellow().WithSC(),
		policy.BEMellow().WithWP(),
	}
	return suiteTable(o, specs, "Extension 4: pausing vs cancellation "+
		"(IPC vs Norm / lifetime years / preemptions / mean read ns)", "",
		func(r, base core.Result) (float64, string) {
			return 0, fmt.Sprintf("%.2f/%s/%d/%.0f", r.IPC/base.IPC, formatYears(r.LifetimeYears()),
				r.Mem.Cancellations+r.Mem.Pauses, r.Mem.ReadLatency.Mean())
		})
}

// runExt5 validates the Start-Gap efficiency assumption behind the §V
// lifetime model (and Ratio_quota = 0.9): it measures achieved leveling
// for representative write patterns across gap-move intervals. Memory
// write streams are cache-filtered and diffuse, which is the regime
// where the assumption holds; the table also shows the adversarial
// single-block case where plain Start-Gap cannot help (the original
// paper pairs it with randomized mapping for that threat).
func runExt5(o Options) error {
	const blocks = 4096
	const writes = 4_000_000
	patterns := []struct {
		name string
		mk   func(seed uint64) func() int64
	}{
		{"uniform (cache-filtered)", func(seed uint64) func() int64 {
			src := rng.New(seed)
			return func() int64 { return int64(src.Uintn(blocks)) }
		}},
		{"sequential sweep", func(seed uint64) func() int64 {
			var i int64
			return func() int64 { i++; return i % blocks }
		}},
		{"zipf 0.9 (skewed)", func(seed uint64) func() int64 {
			src := rng.New(seed)
			z := rng.NewZipf(src, blocks, 0.9)
			return func() int64 { return int64((z.Next() * 0x9E3779B1) % blocks) }
		}},
		{"single hot block", func(seed uint64) func() int64 {
			return func() int64 { return 0 }
		}},
	}
	t := stats.Table{
		Title:  "Extension 5: measured Start-Gap leveling efficiency (1.0 = ideal; model assumes 0.9)",
		Header: []string{"pattern", "psi=10", "psi=100", "psi=1000", "no leveling", "overhead@100"},
	}
	for _, pat := range patterns {
		row := []string{pat.name}
		var ov float64
		for _, psi := range []int{10, 100, 1000, 1 << 30} {
			res := wear.MeasureLeveling(blocks, psi, writes, pat.mk(7))
			row = append(row, stats.F(res.Efficiency, 3))
			if psi == 100 {
				ov = res.Overhead
			}
		}
		row = append(row, stats.Pct(ov))
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// runExt6 probes Mellow Writes under multiprogrammed mixes: several
// cores with private caches share the banks, eroding the idle time the
// mechanisms exploit — the multi-core analogue of Figure 18's bank-
// parallelism sensitivity.
func runExt6(o Options) error {
	mixes := [][]string{
		{"GemsFDTD", "milc"},
		{"lbm", "mcf"},
		{"stream", "gups"},
		{"lbm", "GemsFDTD", "gups", "milc"},
	}
	specs := []policy.Spec{policy.Norm(), policy.BEMellow().WithSC(), policy.BEMellow().WithSC().WithWQ()}
	var cells []Cell
	for _, mix := range mixes {
		ws := make([]trace.Workload, len(mix))
		for i, name := range mix {
			w, err := trace.ByName(name)
			if err != nil {
				return err
			}
			ws[i] = w
		}
		for _, s := range specs {
			cells = append(cells, Cell{Cfg: o.Cfg, Spec: s, Mix: ws})
		}
	}
	res, err := RunCells(o.ctx(), cells, o.Hooks)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title:  "Extension 6: multiprogrammed mixes (per-core IPC sum / lifetime years / bank util)",
		Header: append([]string{"mix"}, policy.Names(specs)...),
	}
	for i := range mixes {
		row := []string{cells[i*len(specs)].Label()}
		for j := range specs {
			m := res[i*len(specs)+j].Mix
			row = append(row, fmt.Sprintf("%.2f/%s/%s",
				m.WeightedIPC(), formatYears(m.LifetimeYears()), stats.Pct(m.Mem.AvgUtilization)))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// runExt7 sweeps §II's technology corners: the same mechanisms on a
// PCM-like device, a high-endurance ReRAM (wear limiting barely needed)
// and a scarce-endurance corner (wear limiting critical).
func runExt7(o Options) error {
	specs := []policy.Spec{policy.Norm(), policy.BEMellow().WithSC()}
	suite := o.workloads()
	if len(suite) > 3 {
		suite = []string{"GemsFDTD", "lbm", "gups"}
	}
	m := matrix{workloads: suite, specs: specs}
	for _, p := range nvm.Presets() {
		m.variants = append(m.variants, o.vary(p.Name, func(c *config.Config) { c.Memory.Device = p.Device }))
	}
	res, err := runMatrices(o, m)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title:  "Extension 7: technology corners (per workload: Norm lifetime -> BE-Mellow+SC lifetime, years)",
		Header: append([]string{"device"}, suite...),
	}
	for _, v := range m.variants {
		row := []string{v.label}
		for _, w := range suite {
			n := res.At(v.label, "Norm", w).LifetimeYears()
			b := res.At(v.label, "BE-Mellow+SC", w).LifetimeYears()
			row = append(row, fmt.Sprintf("%s -> %s", formatYears(n), formatYears(b)))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// runExt8 re-evaluates the Mellow policy line-up on top of each
// selectable wear-leveling backend. The paper's Tables I/II assume
// Start-Gap underneath every policy; WoLFRaM-style decoder remapping and
// SoftWear-style page-granularity software leveling charge different
// remap costs and level with different efficiency, so both the IPC and
// the lifetime columns move — the comparison PAPERS.md names as the
// natural modern baseline sweep.
func runExt8(o Options) error {
	specs := []policy.Spec{
		policy.Norm(),
		policy.BMellow().WithSC(),
		policy.BEMellow().WithSC(),
		policy.BEMellow().WithSC().WithWQ(),
	}
	m := matrix{workloads: o.workloads(), specs: specs}
	for _, backend := range wear.Backends() {
		m.variants = append(m.variants, o.vary(backend, func(c *config.Config) { c.Memory.WearLeveler = backend }))
	}
	res, err := runMatrices(o, m)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title: "Extension 8: wear-leveling backends x Mellow policies " +
			"(IPC vs same-backend Norm / lifetime years / migration writes)",
		Header: append([]string{"workload", "leveler"}, policy.Names(specs)...),
	}
	for _, w := range m.workloads {
		for _, v := range m.variants {
			base := res.At(v.label, "Norm", w)
			row := []string{w, v.label}
			for _, s := range specs {
				r := res.At(v.label, s.Name, w)
				row = append(row, fmt.Sprintf("%.2f/%s/%d",
					r.IPC/base.IPC, formatYears(r.LifetimeYears()), r.Mem.GapMoves))
			}
			t.AddRow(row...)
		}
	}
	return t.Fprint(o.Out)
}
