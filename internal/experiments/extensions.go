package experiments

import (
	"context"
	"fmt"
	"strings"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/nvm"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/stats"
	"mellow/internal/wear"
)

// The ext* experiments go beyond the paper's figures: they implement the
// design-space explorations §VI-I and §VIII name as future work, plus
// ablations of the parameters DESIGN.md calls out.

func init() {
	registry = append(registry,
		Experiment{"ext1", "Extension: multi-latency Mellow Writes (§VIII future work)", onSuite(ext1Specs), renderExt1},
		Experiment{"ext2", "Extension: dead-block (decay) prediction for eager write-backs (§VII)", ext2Cells, renderExt2},
		Experiment{"ext3", "Ablation: eager queue depth, drain thresholds, Start-Gap psi", ext3Cells, renderExt3},
		Experiment{"ext4", "Extension: write pausing vs write cancellation", onSuite(ext4Specs), renderExt4},
		Experiment{"ext5", "Validation: Start-Gap leveling efficiency vs the 0.9 assumption", nil, renderExt5},
		Experiment{"ext6", "Extension: multiprogrammed mixes sharing the memory system", ext6Cells, renderExt6},
		Experiment{"ext7", "Extension: technology corners (PCM-like, high/low-endurance ReRAM)", ext7Cells, renderExt7},
		Experiment{"ext8", "Extension: Mellow policies x wear-leveling backends (Start-Gap, WoLFRaM, SoftWear)", ext8Cells, renderExt8},
	)
}

// ext1Specs sets the two-pulse BE-Mellow+SC beside the graded
// multi-latency variant (+ML), which §VI-I suggests for the benchmarks
// where a fixed 3× pulse is too blunt.
func ext1Specs() []policy.Spec {
	return []policy.Spec{
		policy.Norm(),
		policy.BEMellow().WithSC(),
		policy.BEMellow().WithSC().WithML(),
		policy.BEMellow().WithSC().WithWQ(),
		policy.BEMellow().WithSC().WithML().WithWQ(),
	}
}

func renderExt1(_ context.Context, o Options, s Sweep) error {
	return policyTable(o, s, ext1Specs(), "Extension 1: graded write pulses (IPC vs Norm / lifetime years)", "",
		func(r, base core.Result) (float64, string) {
			return 0, fmt.Sprintf("%.2f/%s", r.IPC/base.IPC, formatYears(r.LifetimeYears()))
		})
}

// ext2Cells swaps the eager-candidate predictor under BE-Mellow+SC: the
// paper's LRU-position profiler versus timeout-style dead-block (decay)
// prediction, after the Norm baseline on the default config that each
// is compared with.
func ext2Cells(o Options) ([]Cell, error) {
	base, err := o.grid(o.workloads(), normOnly())
	if err != nil {
		return nil, err
	}
	preds, err := o.grid(o.workloads(), []policy.Spec{policy.BEMellow().WithSC()},
		o.vary("lru-profile (paper)", func(c *config.Config) { c.Caches.EagerPredictor = cache.PredictorLRUProfile }),
		o.vary("decay (dead-block)", func(c *config.Config) { c.Caches.EagerPredictor = cache.PredictorDecay }))
	return append(base, preds...), err
}

func renderExt2(_ context.Context, o Options, res Sweep) error {
	predictors := res.variants[1:] // after the baseline's ""
	t := stats.Table{
		Title: "Extension 2: eager-candidate predictor " +
			"(IPC vs Norm / lifetime years / wasted eager writes)",
		Header: append([]string{"workload"}, predictors...),
	}
	for _, w := range o.workloads() {
		base := res.At("", "Norm", w)
		row := []string{w}
		for _, p := range predictors {
			r := res.At(p, "BE-Mellow+SC", w)
			row = append(row, fmt.Sprintf("%.2f/%s/%d",
				r.IPC/base.IPC, formatYears(r.LifetimeYears()), r.Cache.WastedEager))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// ext3Cells ablates the controller parameters the design fixes by fiat
// — the 16-entry eager queue, the 16/32 drain thresholds and Start-Gap's
// gap-move interval psi, among others — under BE-Mellow+SC on the
// suite's first workload.
func ext3Cells(o Options) ([]Cell, error) {
	return o.grid(o.workloads()[:1], []policy.Spec{policy.BEMellow().WithSC()},
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
		o.vary("useless threshold 1/8", func(c *config.Config) { c.Caches.UselessHitRatio = 1.0 / 8.0 }))
}

func renderExt3(_ context.Context, o Options, res Sweep) error {
	workload := o.workloads()[0]
	t := stats.Table{
		Title:  fmt.Sprintf("Extension 3: parameter ablations (%s, BE-Mellow+SC)", workload),
		Header: []string{"variant", "IPC", "lifetime (y)", "eager done", "drain time", "gap moves"},
	}
	for _, v := range res.variants {
		r := res.At(v, "BE-Mellow+SC", workload)
		t.AddRow(v, stats.F(r.IPC, 3), formatYears(r.LifetimeYears()),
			fmt.Sprintf("%d", r.Mem.EagerDone), stats.Pct(r.Mem.DrainFraction),
			fmt.Sprintf("%d", r.Mem.GapMoves))
	}
	return t.Fprint(o.Out)
}

// ext4Specs compare read-preemption mechanisms: cancellation (+SC/+NC,
// the paper's choice) redoes the aborted pulse and wears the cell for
// the wasted fraction; pausing (+WP) resumes it. Qureshi et al. (HPCA
// 2010) introduced both; the paper adopts cancellation (§VII).
func ext4Specs() []policy.Spec {
	return []policy.Spec{
		policy.Norm(),
		policy.Slow(),
		policy.Slow().WithSC(),
		policy.Slow().WithWP(),
		policy.BEMellow().WithSC(),
		policy.BEMellow().WithWP(),
	}
}

func renderExt4(_ context.Context, o Options, s Sweep) error {
	return policyTable(o, s, ext4Specs(), "Extension 4: pausing vs cancellation "+
		"(IPC vs Norm / lifetime years / preemptions / mean read ns)", "",
		func(r, base core.Result) (float64, string) {
			return 0, fmt.Sprintf("%.2f/%s/%d/%.0f", r.IPC/base.IPC, formatYears(r.LifetimeYears()),
				r.Mem.Cancellations+r.Mem.Pauses, r.Mem.ReadLatency.Mean())
		})
}

// renderExt5 validates the Start-Gap efficiency assumption behind the §V
// lifetime model (and Ratio_quota = 0.9): it measures achieved leveling
// for representative write patterns across gap-move intervals. Memory
// write streams are cache-filtered and diffuse, which is the regime
// where the assumption holds; the table also shows the adversarial
// single-block case where plain Start-Gap cannot help (the original
// paper pairs it with randomized mapping for that threat).
func renderExt5(ctx context.Context, o Options, _ Sweep) error {
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
			if err := ctx.Err(); err != nil {
				return err
			}
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

// ext6Mixes probe Mellow Writes under multiprogrammed mixes: several
// cores with private caches share the banks, eroding the idle time the
// mechanisms exploit — the multi-core analogue of Figure 18's bank-
// parallelism sensitivity.
var ext6Mixes = [][]string{
	{"GemsFDTD", "milc"},
	{"lbm", "mcf"},
	{"stream", "gups"},
	{"lbm", "GemsFDTD", "gups", "milc"},
}

func ext6Specs() []policy.Spec {
	return []policy.Spec{policy.Norm(), policy.BEMellow().WithSC(), policy.BEMellow().WithSC().WithWQ()}
}

func ext6Cells(o Options) ([]Cell, error) { return o.mixes(ext6Mixes, ext6Specs()) }

// renderExt6 reads each mix's results by cell index: mix-major, then
// policy.
func renderExt6(_ context.Context, o Options, s Sweep) error {
	specs := ext6Specs()
	t := stats.Table{
		Title:  "Extension 6: multiprogrammed mixes (per-core IPC sum / lifetime years / bank util)",
		Header: append([]string{"mix"}, policy.Names(specs)...),
	}
	for i, mix := range ext6Mixes {
		row := []string{strings.Join(mix, "+")}
		for j := range specs {
			m := s.res[i*len(specs)+j].Mix
			row = append(row, fmt.Sprintf("%.2f/%s/%s",
				m.WeightedIPC(), formatYears(m.LifetimeYears()), stats.Pct(m.Mem.AvgUtilization)))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// ext7Suite is the active suite, cut to three representative workloads
// when larger.
func ext7Suite(o Options) []string {
	if suite := o.workloads(); len(suite) <= 3 {
		return suite
	}
	return []string{"GemsFDTD", "lbm", "gups"}
}

// ext7Cells declares §II's technology corners: the same mechanisms on
// a PCM-like device, a high-endurance ReRAM (wear limiting barely
// needed) and a scarce-endurance corner (wear limiting critical).
func ext7Cells(o Options) ([]Cell, error) {
	var vs []variant
	for _, p := range nvm.Presets() {
		vs = append(vs, o.vary(p.Name, func(c *config.Config) { c.Memory.Device = p.Device }))
	}
	return o.grid(ext7Suite(o), []policy.Spec{policy.Norm(), policy.BEMellow().WithSC()}, vs...)
}

func renderExt7(_ context.Context, o Options, res Sweep) error {
	suite := ext7Suite(o)
	t := stats.Table{
		Title:  "Extension 7: technology corners (per workload: Norm lifetime -> BE-Mellow+SC lifetime, years)",
		Header: append([]string{"device"}, suite...),
	}
	for _, device := range res.variants {
		row := []string{device}
		for _, w := range suite {
			n := res.At(device, "Norm", w).LifetimeYears()
			b := res.At(device, "BE-Mellow+SC", w).LifetimeYears()
			row = append(row, fmt.Sprintf("%s -> %s", formatYears(n), formatYears(b)))
		}
		t.AddRow(row...)
	}
	return t.Fprint(o.Out)
}

// ext8Specs is the Mellow policy line-up ext8 re-evaluates on top of
// each selectable wear-leveling backend. The paper's Tables I/II assume
// Start-Gap underneath every policy; WoLFRaM-style decoder remapping and
// SoftWear-style page-granularity software leveling charge different
// remap costs and level with different efficiency, so both the IPC and
// the lifetime columns move — the comparison PAPERS.md names as the
// natural modern baseline sweep.
func ext8Specs() []policy.Spec {
	return []policy.Spec{
		policy.Norm(),
		policy.BMellow().WithSC(),
		policy.BEMellow().WithSC(),
		policy.BEMellow().WithSC().WithWQ(),
	}
}

func ext8Cells(o Options) ([]Cell, error) {
	var vs []variant
	for _, backend := range wear.Backends() {
		vs = append(vs, o.vary(backend, func(c *config.Config) { c.Memory.WearLeveler = backend }))
	}
	return o.grid(o.workloads(), ext8Specs(), vs...)
}

func renderExt8(_ context.Context, o Options, res Sweep) error {
	specs := ext8Specs()
	t := stats.Table{
		Title: "Extension 8: wear-leveling backends x Mellow policies " +
			"(IPC vs same-backend Norm / lifetime years / migration writes)",
		Header: append([]string{"workload", "leveler"}, policy.Names(specs)...),
	}
	for _, w := range o.workloads() {
		for _, backend := range res.variants {
			base := res.At(backend, "Norm", w)
			row := []string{w, backend}
			for _, s := range specs {
				r := res.At(backend, s.Name, w)
				row = append(row, fmt.Sprintf("%.2f/%s/%d",
					r.IPC/base.IPC, formatYears(r.LifetimeYears()), r.Mem.GapMoves))
			}
			t.AddRow(row...)
		}
	}
	return t.Fprint(o.Out)
}
