package experiments

import (
	"context"
	"fmt"

	"mellow/internal/config"
	"mellow/internal/policy"
	"mellow/internal/scenario"
	"mellow/internal/trace"
)

// RunScenario executes one declarative scenario: the workload × leveler
// × policy matrix runs through RunCells, and the cells land in matrix
// order so the result document is deterministic. Each distinct workload
// is resolved once, so its cells share one generator factory (and one
// lazily built hot-set shape). h observes the cells, indexed in
// sc.Cells() order.
func RunScenario(ctx context.Context, base config.Config, sc *scenario.Scenario, h Hooks) (*scenario.Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cfg, err := sc.EffectiveConfig(base)
	if err != nil {
		return nil, err
	}
	key, err := sc.RunKey(base)
	if err != nil {
		return nil, err
	}
	workloads := make(map[string]trace.Workload, len(sc.Workloads)) // names are unique
	for _, ref := range sc.Workloads {
		w, err := resolve(ref)
		if err != nil {
			return nil, err
		}
		workloads[ref.Name] = w
	}
	refs := sc.Cells()
	cells := make([]Cell, len(refs))
	for i, ref := range refs {
		pspec, err := policy.Parse(ref.Policy)
		if err != nil {
			return nil, err
		}
		cells[i] = Cell{Cfg: cfg, Spec: pspec, Workload: workloads[ref.Workload.Name]}
		if ref.Leveler != "" {
			cells[i].Cfg.Memory.WearLeveler = ref.Leveler
		}
	}
	res, err := RunCells(ctx, cells, h)
	if err != nil {
		return nil, err
	}
	out := &scenario.Result{Scenario: sc.Name, Key: key, Cells: make([]scenario.CellResult, len(refs))}
	for i, ref := range refs {
		out.Cells[i] = scenario.CellResult{
			Workload: ref.Workload.Name,
			Leveler:  ref.Leveler,
			Policy:   ref.Policy,
			Result:   res[i].Result,
		}
	}
	return out, nil
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
