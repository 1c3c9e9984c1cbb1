package experiments

import (
	"context"
	"fmt"
	"sync"

	"mellow/internal/config"
	"mellow/internal/policy"
	"mellow/internal/scenario"
	"mellow/internal/trace"
)

// RunScenario executes one declarative scenario: the workload × leveler
// × policy matrix fans out in parallel through the memoised sched-
// governed simulation path, and the cells land in matrix order so the
// result document is deterministic. onProgress (optional) fires after
// every completed cell.
func RunScenario(ctx context.Context, base config.Config, sc *scenario.Scenario, onProgress func(done, total int)) (*scenario.Result, error) {
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
	cells := sc.Cells()
	out := &scenario.Result{Scenario: sc.Name, Key: key, Cells: make([]scenario.CellResult, len(cells))}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	for i, cell := range cells {
		if err := ctx.Err(); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			break
		}
		wg.Add(1)
		go func(i int, cell scenario.Cell) {
			defer wg.Done()
			ccfg := cfg
			if cell.Leveler != "" {
				ccfg.Memory.WearLeveler = cell.Leveler
			}
			pspec, err := policy.Parse(cell.Policy)
			var w trace.Workload
			switch {
			case err != nil: // the policy did not parse
			case cell.Workload.Spec != nil:
				w, err = cell.Workload.Spec.Workload(cell.Workload.Name, 0)
			default:
				w, err = trace.ByName(cell.Workload.Name)
			}
			var ins Instrumented
			if err == nil {
				ins, err = Run(ctx, ccfg, pspec, w, Observation{})
			}
			mu.Lock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				out.Cells[i] = scenario.CellResult{
					Workload: cell.Workload.Name,
					Leveler:  cell.Leveler,
					Policy:   cell.Policy,
					Result:   ins.Result,
				}
			}
			done++
			if onProgress != nil {
				onProgress(done, len(cells))
			}
			mu.Unlock()
		}(i, cell)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
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
		res, err := RunScenario(ctx, base, e.Scenario, nil)
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
