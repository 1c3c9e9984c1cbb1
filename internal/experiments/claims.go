package experiments

import (
	"context"
	"fmt"
	"math"

	"mellow/internal/core"
	"mellow/internal/policy"
	"mellow/internal/stats"
)

func init() {
	registry = append(registry,
		Experiment{"claims", "Headline-claim verification (paper vs this reproduction)", EvalSweep, renderClaims})
}

// claim is one falsifiable statement from the paper, checked against the
// evaluation sweep. Thresholds are set at "shape" level: direction and
// rough magnitude, not the authors' absolute numbers (see DESIGN.md §4).
type claim struct {
	id    string
	text  string
	paper string
	check func(sweep Sweep, o Options) (measured string, ok bool)
}

// geomeanOver computes a geometric mean of a per-workload metric for one
// policy, skipping unbounded values.
func geomeanOver(sweep Sweep, o Options, policyName string,
	metric func(core.Result) float64) float64 {
	var vs []float64
	for _, w := range o.workloads() {
		v := metric(sweep.At("", policyName, w))
		if !math.IsInf(v, 1) && !math.IsNaN(v) {
			vs = append(vs, v)
		}
	}
	return stats.Geomean(vs)
}

func claims() []claim {
	lifetime := func(r core.Result) float64 { return r.LifetimeYears() }
	ipc := func(r core.Result) float64 { return r.IPC }
	return []claim{
		{
			id:    "C1",
			text:  "BE-Mellow+SC extends lifetime well beyond Norm (geomean)",
			paper: "2.58x",
			check: func(s Sweep, o Options) (string, bool) {
				ratio := geomeanOver(s, o, "BE-Mellow+SC", lifetime) /
					geomeanOver(s, o, "Norm", lifetime)
				return fmt.Sprintf("%.2fx", ratio), ratio >= 1.5
			},
		},
		{
			id:    "C2",
			text:  "BE-Mellow+SC matches or beats Norm performance (geomean IPC)",
			paper: "1.06x",
			check: func(s Sweep, o Options) (string, bool) {
				ratio := geomeanOver(s, o, "BE-Mellow+SC", ipc) /
					geomeanOver(s, o, "Norm", ipc)
				return fmt.Sprintf("%.2fx", ratio), ratio >= 0.98
			},
		},
		{
			id:    "C3",
			text:  "BE-Mellow+SC is within a whisker of the aggressive E-Norm+NC's performance",
			paper: "'almost the same as a system aggressively optimized for performance'",
			check: func(s Sweep, o Options) (string, bool) {
				ratio := geomeanOver(s, o, "BE-Mellow+SC", ipc) /
					geomeanOver(s, o, "E-Norm+NC", ipc)
				return fmt.Sprintf("%.2fx", ratio), ratio >= 0.95
			},
		},
		{
			id:    "C4",
			text:  "E-Norm+NC has an unacceptably short lifetime (worst of the line-up)",
			paper: "shortest in Fig. 11",
			check: func(s Sweep, o Options) (string, bool) {
				en := geomeanOver(s, o, "E-Norm+NC", lifetime)
				for _, p := range policy.Names(policy.EvaluationSet()) {
					if p == "E-Norm+NC" {
						continue
					}
					if geomeanOver(s, o, p, lifetime) < en {
						return fmt.Sprintf("%.2fy not the minimum", en), false
					}
				}
				return fmt.Sprintf("%.2fy (minimum)", en), true
			},
		},
		{
			id:    "C5",
			text:  "All-slow writes cost real performance",
			paper: "E-Slow+SC geomean 0.77x, worst 0.46x",
			check: func(s Sweep, o Options) (string, bool) {
				ratio := geomeanOver(s, o, "Slow", ipc) / geomeanOver(s, o, "Norm", ipc)
				return fmt.Sprintf("Slow %.2fx", ratio), ratio <= 0.90
			},
		},
		{
			id:    "C6",
			text:  "Wear Quota pulls heavy writers toward the 8-year floor",
			paper: ">= 8 years for all workloads",
			check: func(s Sweep, o Options) (string, bool) {
				// The floor emerges over the measured window; for the
				// heavy writers the +WQ config must land near 8 years
				// even though Norm is far below.
				worstGain, worst := math.Inf(1), ""
				for _, w := range o.workloads() {
					n := s.At("", "Norm", w).LifetimeYears()
					if n >= 8 {
						continue // quota never binds
					}
					q := s.At("", "Norm+WQ", w).LifetimeYears()
					gain := q / n
					if gain < worstGain {
						worstGain, worst = gain, w
					}
					if q < 4.5 {
						return fmt.Sprintf("%s: %.1fy under Norm+WQ", w, q), false
					}
				}
				if worst == "" {
					return "quota never needed", true
				}
				return fmt.Sprintf("worst gain %.1fx (%s)", worstGain, worst), true
			},
		},
		{
			id:    "C7",
			text:  "BE-Mellow+SC keeps write-drain time small",
			paper: "<= ~6% of execution time",
			check: func(s Sweep, o Options) (string, bool) {
				worst := 0.0
				for _, w := range o.workloads() {
					if f := s.At("", "BE-Mellow+SC", w).Mem.DrainFraction; f > worst {
						worst = f
					}
				}
				return stats.Pct(worst), worst <= 0.08
			},
		},
		{
			id:    "C8",
			text:  "Eager writes convert a large share of LLC write-backs",
			paper: "'nearly half of the writes' (Fig. 14)",
			check: func(s Sweep, o Options) (string, bool) {
				var shares []float64
				for _, w := range o.workloads() {
					c := s.At("", "BE-Mellow+SC", w).Cache
					if tot := c.MemWritebacks + c.EagerIssued; tot > 0 {
						shares = append(shares, float64(c.EagerIssued)/float64(tot))
					}
				}
				mean := 0.0
				for _, v := range shares {
					mean += v
				}
				mean /= float64(len(shares))
				return stats.Pct(mean), mean >= 0.35
			},
		},
		{
			id:    "C9",
			text:  "The useless-line predictor is accurate: eager writes barely inflate write traffic",
			paper: "up to 2.2% extra writes (hmmer, Fig. 14)",
			check: func(s Sweep, o Options) (string, bool) {
				// The paper's metric: LLC->memory write requests under the
				// eager scheme versus the baseline. Workloads whose baseline
				// write traffic is negligible (our hmmer stand-in is almost
				// fully cache-resident) are skipped — any eager write at all
				// is an unbounded relative increase there.
				worst := 0.0
				for _, w := range o.workloads() {
					base := s.At("", "Norm", w).Cache
					be := s.At("", "BE-Mellow+SC", w).Cache
					if base.MemWritebacks < base.MemFetches/20 {
						continue
					}
					incr := float64(be.MemWritebacks+be.EagerIssued)/float64(base.MemWritebacks) - 1
					if incr > worst {
						worst = incr
					}
				}
				return stats.Pct(worst), worst <= 0.15
			},
		},
		{
			id:    "C10",
			text:  "Main-memory energy overhead of the best config is moderate",
			paper: "~1.39x Norm",
			check: func(s Sweep, o Options) (string, bool) {
				ratio := geomeanOver(s, o, "BE-Mellow+SC+WQ",
					func(r core.Result) float64 { return r.Mem.EnergyPJ }) /
					geomeanOver(s, o, "Norm",
						func(r core.Result) float64 { return r.Mem.EnergyPJ })
				return fmt.Sprintf("%.2fx", ratio), ratio <= 1.6
			},
		},
	}
}

// renderClaims evaluates every headline claim against the evaluation
// sweep and prints a pass/fail table.
func renderClaims(_ context.Context, o Options, sweep Sweep) error {
	t := stats.Table{
		Title:  "Headline claims: paper statement vs this reproduction",
		Header: []string{"id", "claim", "paper", "measured", "verdict"},
	}
	pass := 0
	all := claims()
	for _, c := range all {
		measured, ok := c.check(sweep, o)
		verdict := "FAIL"
		if ok {
			verdict = "pass"
			pass++
		}
		t.AddRow(c.id, c.text, c.paper, measured, verdict)
	}
	t.AddRow("", fmt.Sprintf("total: %d/%d", pass, len(all)))
	return t.Fprint(o.Out)
}
