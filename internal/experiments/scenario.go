package experiments

import (
	"context"
	"fmt"

	"mellow/internal/config"
	"mellow/internal/policy"
	"mellow/internal/scenario"
	"mellow/internal/trace"
)

// ScenarioCells compiles a scenario to the cell enumerator behind every
// experiment: its workloads × levelers × policies under the effective
// configuration, in that order. A leveler becomes a variant labelled by
// its name ("" or none: the configuration's own backend), and each
// cell's Policy label keeps the scenario's spelling. Each workload is
// resolved once, so its cells share one generator factory (and one
// lazily built hot-set shape).
func ScenarioCells(base config.Config, sc *scenario.Scenario) ([]Cell, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cfg, err := sc.EffectiveConfig(base)
	if err != nil {
		return nil, err
	}
	workloads := make([][]trace.Workload, len(sc.Workloads))
	for i, ref := range sc.Workloads {
		w, err := resolve(ref)
		if err != nil {
			return nil, err
		}
		workloads[i] = []trace.Workload{w}
	}
	variants := []variant{{cfg: cfg}}
	if len(sc.Levelers) > 0 {
		variants = make([]variant, len(sc.Levelers))
		for i, l := range sc.Levelers {
			variants[i] = variant{l, cfg}
			if l != "" {
				variants[i].cfg.Memory.WearLeveler = l
			}
		}
	}
	specs := make([]policy.Spec, len(sc.Policies))
	for i, p := range sc.Policies {
		if specs[i], err = policy.Parse(p); err != nil {
			return nil, err
		}
	}
	cells := cross(workloads, variants, specs)
	for i := range cells {
		cells[i].Policy = sc.Policies[i%len(specs)]
	}
	return cells, nil
}

// ScenarioResult renders the scenario's result document from res, the
// results of its ScenarioCells against base, in cell order.
func ScenarioResult(base config.Config, sc *scenario.Scenario, cells []Cell, res []Instrumented) (*scenario.Result, error) {
	key, err := sc.RunKey(base)
	if err != nil {
		return nil, err
	}
	out := &scenario.Result{Scenario: sc.Name, Key: key, Cells: make([]scenario.CellResult, len(cells))}
	for i, c := range cells {
		out.Cells[i] = scenario.CellResult{Workload: c.Label(), Leveler: c.Variant, Policy: c.Policy, Result: res[i].Result}
	}
	return out, nil
}

// RunScenario executes one declarative scenario: its ScenarioCells run
// through RunCells under h and land in matrix order, so the result
// document is deterministic.
func RunScenario(ctx context.Context, base config.Config, sc *scenario.Scenario, h Hooks) (*scenario.Result, error) {
	cells, err := ScenarioCells(base, sc)
	if err != nil {
		return nil, err
	}
	res, err := RunCells(ctx, cells, h)
	if err != nil {
		return nil, err
	}
	return ScenarioResult(base, sc, cells, res)
}

// resolve turns a scenario workload reference into a runnable workload:
// its inline spec, or the builtin of that name.
func resolve(ref scenario.WorkloadRef) (trace.Workload, error) {
	if ref.Spec != nil {
		return ref.Spec.Workload(ref.Name, 0)
	}
	return trace.ByName(ref.Name)
}

// ScenarioOutcome reports one corpus scenario's run.
type ScenarioOutcome struct {
	Name string
	Path string
	// Updated marks a golden (re)written in update mode.
	Updated bool
	// Err is the run or golden-compare failure, nil on success.
	Err error
	// Result is the produced document (nil when the run itself failed).
	Result *scenario.Result
}

// RunScenarioCorpus discovers every test-*.json scenario under dir,
// runs each against base and compares (or, with update, regenerates)
// its committed .expected golden. Scenarios execute in sorted path
// order — their cells still fan out in parallel under the scheduler
// budget — and every scenario is attempted even after failures, so one
// run reports the whole corpus. onDone (optional) fires per scenario.
func RunScenarioCorpus(ctx context.Context, base config.Config, dir string, update bool, onDone func(ScenarioOutcome)) ([]ScenarioOutcome, error) {
	entries, err := scenario.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	outcomes := make([]ScenarioOutcome, 0, len(entries))
	for _, e := range entries {
		oc := ScenarioOutcome{Name: e.Scenario.Name, Path: e.Path}
		res, err := RunScenario(ctx, base, e.Scenario, Hooks{})
		if err != nil {
			oc.Err = fmt.Errorf("scenario %s: %v", e.Scenario.Name, err)
		} else {
			oc.Result = res
			if update {
				oc.Err = res.WriteFile(scenario.ExpectedPath(e.Path))
				oc.Updated = oc.Err == nil
			} else {
				oc.Err = res.CompareFile(scenario.ExpectedPath(e.Path))
			}
		}
		if onDone != nil {
			onDone(oc)
		}
		outcomes = append(outcomes, oc)
		if err := ctx.Err(); err != nil {
			return outcomes, err
		}
	}
	return outcomes, nil
}
