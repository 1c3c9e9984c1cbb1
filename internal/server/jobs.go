package server

import (
	"bytes"
	"context"
	"time"

	"mellow/internal/core"
	"mellow/internal/engine"
	"mellow/internal/experiments"
	"mellow/internal/metrics"
	"mellow/internal/sim"
	"mellow/internal/xtrace"
)

// jobState is one submitted job's lifecycle record. Mutable fields are
// guarded by the owning Server's mutex; done closes on completion. A
// finished job keeps only what the status, result, events and trace
// handlers and eviction read: execute drops its run at finish, and
// holds its result packed.
type jobState struct {
	id   string
	key  string
	kind string

	state      string
	err        string
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
	done       chan struct{}

	// run is the job's submission, nil once finished.
	run *jobRun
	// result is a done job's result.
	result heldResult

	// epochs is the job's progress and the log behind
	// GET /v1/jobs/{id}/events, minted at admission.
	epochs *epochLog

	// spans is the wall-clock span recorder, minted at admission for
	// jobs submitted with "trace": true (nil otherwise; every recording
	// call is nil-safe).
	spans *xtrace.SpanRecorder
	// traces collects each simulation's execution timeline, one slot
	// per matrix cell; readers wait for done to close.
	traces []*xtrace.SimTrace
}

// jobRun is what a queued or running job needs beyond its finished
// record.
type jobRun struct {
	canon canonicalJob
	// timeout caps execution; zero means the server default.
	timeout time.Duration
}

// heldResult is a done job's JobResult as the server holds it: Results
// and Series packed by experiments.Pack, a quarter of their JSON bytes
// or less (TestFinishedJobFootprint measures both), and the metrics
// snapshots, report and scenario document the packer does not carry
// as they are, in extra (nil when the result has none).
type heldResult struct {
	packed []byte
	extra  *JobResult
}

// packedRuns is the part of a JobResult that heldResult packs.
type packedRuns struct {
	Results []core.Result
	Series  []experiments.SeriesRecord
}

// holdResult packs res for keeping. A result the packer cannot carry
// is kept as it is.
func holdResult(res *JobResult) heldResult {
	b, err := experiments.Pack(&packedRuns{res.Results, res.Series})
	if err != nil {
		return heldResult{extra: res}
	}
	h := heldResult{packed: b}
	if res.Metrics != nil || res.Report != nil || res.Scenario != nil {
		extra := *res
		extra.Results, extra.Series = nil, nil
		h.extra = &extra
	}
	return h
}

// get rebuilds the result of the job with the given key and kind. Each
// call returns fresh Results and Series.
func (h heldResult) get(key, kind string) *JobResult {
	r := JobResult{Key: key, Kind: kind}
	if h.extra != nil {
		r = *h.extra
	}
	if h.packed != nil {
		var runs packedRuns
		experiments.Unpack(h.packed, &runs)
		r.Results, r.Series = runs.Results, runs.Series
	}
	return &r
}

// seriesOf returns the epoch series a result holds: a sim or compare
// job's Series, or an experiment job's report series.
func seriesOf(r *JobResult) []experiments.SeriesRecord {
	if r.Report != nil {
		return r.Report.Series
	}
	return r.Series
}

// status renders the job for the API. Callers hold the server mutex;
// the progress is read under the epoch log's own lock.
func (j *jobState) status(deduped bool) JobStatus {
	st := JobStatus{
		ID:       j.id,
		Key:      j.key,
		State:    j.state,
		Deduped:  deduped,
		Error:    j.err,
		Progress: j.epochs.fraction(),
		Epoch:    j.epochs.sample(),
		QueuedAt: j.queuedAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
		st.ElapsedMS = j.finishedAt.Sub(j.startedAt).Milliseconds()
	}
	if j.state == StateDone {
		st.Result = j.result.get(j.key, j.kind)
	}
	return st
}

// runJob executes one job's simulations through the memoised harness,
// so identical sub-simulations across different jobs run once. A
// positive interval_ns runs them observed: per-epoch series land in the
// result, and the same OnEpoch feed that streams them drives the status
// API's live progress.
//
// Every kind runs in the same three steps: plan the cells, run them as
// one RunCells batch observed by the same hooks, render the results.
// The kind picks only the plan and the rendering: an experiment job
// plans its experiment's declared cells and renders its report, every
// other kind compiles one scenario (canonicalJob.matrix) and renders
// the scenario document or, for a sim or compare job, its flat Results
// (plus Series and Metrics). The process-wide scheduler
// (internal/sched) bounds total concurrent simulations across every
// job, and results come back in cell order — the payload and the SSE
// cell index keep the exact sequential ordering, so equal keys still
// yield equal bytes no matter which cells finish first.
func runJob(ctx context.Context, js *jobState) (*JobResult, error) {
	canon, log := js.run.canon, js.epochs
	out := &JobResult{Key: js.key, Kind: canon.Kind}
	epoch := sim.NS(canon.IntervalNS)
	cells, render, err := planJob(ctx, canon, out)
	if err != nil {
		return nil, err
	}
	n := len(cells)
	recs, starts := make([]experiments.SeriesRecord, n), make([]time.Time, n)
	for i, c := range cells {
		recs[i] = c.Record()
	}
	log.plan(recs)
	if canon.Trace {
		js.traces = make([]*xtrace.SimTrace, n)
	}
	h := experiments.Hooks{
		Start: func(i int) experiments.Observation {
			ob := experiments.Observation{Epoch: epoch, Metrics: canon.Metrics, Trace: canon.Trace}
			if epoch > 0 {
				ob.OnEpoch = func(s engine.EpochSample) { log.epoch(i, s) }
			}
			starts[i] = time.Now()
			return ob
		},
		// Every cell retires, failed and cancelled ones too, so a failed
		// job's progress accounts for all attempted work instead of
		// freezing mid-matrix. OnEpoch only fires when the cell executes
		// the simulation itself; a memo hit or a joined in-flight run
		// delivers its whole series here instead.
		Done: func(i int, in experiments.Instrumented, err error) {
			rec := cells[i].Record()
			if !starts[i].IsZero() {
				js.spans.Span("sim "+rec.Workload+"/"+rec.Policy, "cell", starts[i], time.Now(),
					"workload", rec.Workload, "policy", rec.Policy)
			}
			if err != nil {
				log.done(i, nil)
				return
			}
			log.done(i, in.Series) // nil for an unobserved run
			if canon.Trace {
				js.traces[i] = in.Trace
			}
		},
	}
	ins, err := experiments.RunCells(ctx, cells, h)
	if err != nil {
		return nil, err
	}
	renderStart := time.Now()
	if err := render(ins); err != nil {
		return nil, err
	}
	js.spans.Span("render", "job", renderStart, time.Now())
	return out, nil
}

// planJob declares a job's cells and the rendering of their results
// into out, which stops with ctx's error when ctx ends.
func planJob(ctx context.Context, canon canonicalJob, out *JobResult) ([]experiments.Cell, func([]experiments.Instrumented) error, error) {
	observed := canon.IntervalNS > 0
	if canon.Kind == KindExperiment {
		e, err := experiments.ByID(canon.Experiment)
		if err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		o := experiments.Options{Cfg: canon.Config, Out: &buf, Workloads: canon.Workloads}
		cells, err := e.Cells(o)
		return cells, func(ins []experiments.Instrumented) error {
			if err := e.Render(ctx, o, cells, ins); err != nil {
				return err
			}
			out.Report = &experiments.Report{ID: e.ID, Title: e.Title, Output: buf.String()}
			if observed {
				out.Report.Series = experiments.Records(cells, ins)
			}
			return nil
		}, err
	}
	sc := canon.matrix()
	cells, err := experiments.ScenarioCells(canon.Config, sc)
	return cells, func(ins []experiments.Instrumented) error {
		if canon.Kind == KindScenario {
			var err error
			out.Scenario, err = experiments.ScenarioResult(canon.Config, sc, cells, ins)
			return err
		}
		out.Results = make([]core.Result, len(ins))
		if observed {
			out.Series = experiments.Records(cells, ins)
		}
		if canon.Metrics {
			out.Metrics = make([]*metrics.Snapshot, len(ins))
		}
		for i, in := range ins {
			out.Results[i] = in.Result
			if canon.Metrics {
				out.Metrics[i] = in.Metrics
			}
		}
		return nil
	}, err
}
