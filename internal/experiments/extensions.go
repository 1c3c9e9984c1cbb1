package experiments

import (
	"fmt"
	"strings"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/nvm"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/sched"
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
	res, err := runGrid(o, o.Cfg, o.workloads(), specs)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title:  "Extension 1: graded write pulses (IPC vs Norm / lifetime years)",
		Header: append([]string{"workload"}, policy.Names(specs)...),
	}
	for _, w := range o.workloads() {
		base := res[[2]string{"Norm", w}]
		row := []string{w}
		for _, s := range specs {
			r := res[[2]string{s.Name, w}]
			row = append(row, fmt.Sprintf("%.2f/%s", r.IPC/base.IPC, formatYears(r.LifetimeYears())))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// runExt2 swaps the eager-candidate predictor: the paper's LRU-position
// profiler versus timeout-style dead-block (decay) prediction.
func runExt2(o Options) error {
	spec := policy.BEMellow().WithSC()
	type variant struct {
		label     string
		predictor string
	}
	variants := []variant{
		{"lru-profile (paper)", cache.PredictorLRUProfile},
		{"decay (dead-block)", cache.PredictorDecay},
	}
	// Per workload: the Norm baseline on the default config, then one
	// cell per predictor variant.
	ws := o.workloads()
	var cells []Cell
	for _, name := range ws {
		w, err := trace.ByName(name)
		if err != nil {
			return err
		}
		cells = append(cells, Cell{Cfg: o.Cfg, Spec: policy.Norm(), Workload: w})
		for _, v := range variants {
			cfg := o.Cfg
			cfg.Caches.EagerPredictor = v.predictor
			cells = append(cells, Cell{Cfg: cfg, Spec: spec, Workload: w})
		}
	}
	res, err := runAll(o, cells)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title: "Extension 2: eager-candidate predictor " +
			"(IPC vs Norm / lifetime years / wasted eager writes)",
		Header: []string{"workload", variants[0].label, variants[1].label},
	}
	stride := 1 + len(variants)
	for j, name := range ws {
		base := res[j*stride].Result
		row := []string{name}
		for k := range variants {
			r := res[j*stride+1+k].Result
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
	w, err := trace.ByName(workload)
	if err != nil {
		return err
	}
	cases := []struct {
		label string
		mut   cfgMutator
	}{
		{"baseline (eq=16, drain 16/32, psi=100)", func(*configT) {}},
		{"eager queue 4", func(c *configT) { c.Memory.EagerQueue = 4 }},
		{"eager queue 64", func(c *configT) { c.Memory.EagerQueue = 64 }},
		{"drain thresholds 8/16", func(c *configT) { c.Memory.DrainLow, c.Memory.DrainHigh = 8, 16 }},
		{"drain thresholds 24/32", func(c *configT) { c.Memory.DrainLow = 24 }},
		{"Start-Gap psi 10", func(c *configT) { c.Memory.StartGapPsi = 10 }},
		{"Start-Gap psi 1000", func(c *configT) { c.Memory.StartGapPsi = 1000 }},
		{"2 channels", func(c *configT) { c.Memory.Channels = 2 }},
		{"FR-FCFS reads", func(c *configT) { c.Memory.Scheduler = "frfcfs" }},
		{"profile period 100us", func(c *configT) { c.Caches.ProfilePeriod /= 5 }},
		{"useless threshold 1/8", func(c *configT) { c.Caches.UselessHitRatio = 1.0 / 8.0 }},
	}
	cells := make([]Cell, len(cases))
	for i, cse := range cases {
		cells[i] = Cell{Cfg: o.Cfg, Spec: spec, Workload: w}
		cse.mut(&cells[i].Cfg)
	}
	// The ablation rows are plain runs: Options' observers do not apply.
	res, err := RunCells(o.ctx(), cells, Hooks{})
	if err != nil {
		return err
	}
	t := stats.Table{
		Title:  fmt.Sprintf("Extension 3: parameter ablations (%s, BE-Mellow+SC)", workload),
		Header: []string{"variant", "IPC", "lifetime (y)", "eager done", "drain time", "gap moves"},
	}
	for i, cse := range cases {
		r := res[i].Result
		t.AddRow(cse.label, stats.F(r.IPC, 3), formatYears(r.LifetimeYears()),
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
	res, err := runGrid(o, o.Cfg, o.workloads(), specs)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title: "Extension 4: pausing vs cancellation " +
			"(IPC vs Norm / lifetime years / preemptions / mean read ns)",
		Header: append([]string{"workload"}, policy.Names(specs)...),
	}
	for _, w := range o.workloads() {
		base := res[[2]string{"Norm", w}]
		row := []string{w}
		for _, s := range specs {
			r := res[[2]string{s.Name, w}]
			pre := r.Mem.Cancellations + r.Mem.Pauses
			row = append(row, fmt.Sprintf("%.2f/%s/%d/%.0f",
				r.IPC/base.IPC, formatYears(r.LifetimeYears()), pre,
				r.Mem.ReadLatency.Mean()))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
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
	t := stats.Table{
		Title:  "Extension 6: multiprogrammed mixes (per-core IPC sum / lifetime years / bank util)",
		Header: append([]string{"mix"}, policy.Names(specs)...),
	}
	for _, mix := range mixes {
		row := []string{strings.Join(mix, "+")}
		for _, s := range specs {
			// A mix models len(mix) cores against one memory system, so
			// it holds that many scheduler slots — the weighted analogue
			// of one slot per single-core simulation.
			release, err := sched.Default().Acquire(o.ctx(), int64(len(mix)))
			if err != nil {
				return err
			}
			m, err := core.RunMix(o.Cfg, s, mix)
			release()
			if err != nil {
				return err
			}
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
	t := stats.Table{
		Title:  "Extension 7: technology corners (per workload: Norm lifetime -> BE-Mellow+SC lifetime, years)",
		Header: append([]string{"device"}, suite...),
	}
	for _, p := range nvm.Presets() {
		cfg := o.Cfg
		cfg.Memory.Device = p.Device
		res, err := runGrid(o, cfg, suite, specs)
		if err != nil {
			return err
		}
		row := []string{p.Name}
		for _, w := range suite {
			n := res[[2]string{"Norm", w}].LifetimeYears()
			b := res[[2]string{"BE-Mellow+SC", w}].LifetimeYears()
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
	t := stats.Table{
		Title: "Extension 8: wear-leveling backends x Mellow policies " +
			"(IPC vs same-backend Norm / lifetime years / migration writes)",
		Header: append([]string{"workload", "leveler"}, policy.Names(specs)...),
	}
	for _, w := range o.workloads() {
		for _, backend := range wear.Backends() {
			cfg := o.Cfg
			cfg.Memory.WearLeveler = backend
			res, err := runGrid(o, cfg, []string{w}, specs)
			if err != nil {
				return err
			}
			base := res[[2]string{"Norm", w}]
			row := []string{w, backend}
			for _, s := range specs {
				r := res[[2]string{s.Name, w}]
				row = append(row, fmt.Sprintf("%.2f/%s/%d",
					r.IPC/base.IPC, formatYears(r.LifetimeYears()), r.Mem.GapMoves))
			}
			t.AddRow(row...)
		}
	}
	return t.Fprint(o.Out)
}

// cfgMutator adjusts one configuration field for an ablation variant.
type cfgMutator = func(*configT)

// configT abbreviates the config type in ablation tables.
type configT = config.Config
