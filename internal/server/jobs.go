package server

import (
	"bytes"
	"context"
	"math"
	"sync"
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

	// run is the job's submission and live progress, nil once finished.
	run *jobRun
	// progress and epoch are a finished job's final completion fraction
	// and freshest epoch sample (nil for an unobserved job).
	progress float64
	epoch    *engine.EpochSample
	// result is a done job's result.
	result heldResult

	// stream is the job's bounded broadcast log behind
	// GET /v1/jobs/{id}/events. Minted at admission; nil only for
	// jobStates tests build by hand (every streamLog method is
	// nil-safe).
	stream *streamLog

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
	timeout  time.Duration
	progress jobProgress
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

// jobProgress is a job's live completion state: one completion fraction
// per matrix cell plus the freshest epoch sample any cell published. A
// running observed cell's fraction is the progress of its last sample;
// a retired cell counts as 1 — failed and cancelled ones too, so a
// failed job's fraction accounts for all work the job tried rather than
// freezing at an arbitrary value. Cells write concurrently; status
// readers see a monotone non-decreasing fraction through the maxSeen
// clamp.
type jobProgress struct {
	mu      sync.Mutex
	cells   []float64
	last    engine.EpochSample // valid once hasLast
	hasLast bool
	maxSeen float64
}

// setTotal sizes the job to its n cells, none of them started.
func (p *jobProgress) setTotal(n int) {
	p.mu.Lock()
	p.cells = make([]float64, n)
	p.mu.Unlock()
}

// epoch records a sample cell i's running simulation just closed.
// Parallel cells publish in any order, so the freshest sample is the
// one with the greatest end tick.
func (p *jobProgress) epoch(i int, s engine.EpochSample) {
	p.mu.Lock()
	p.cells[i] = max(p.cells[i], s.Progress)
	if !p.hasLast || s.End > p.last.End {
		p.last, p.hasLast = s, true
	}
	p.mu.Unlock()
}

// retire counts cell i as complete — on success, failure and
// cancellation alike.
func (p *jobProgress) retire(i int) {
	p.mu.Lock()
	p.cells[i] = 1
	p.mu.Unlock()
}

// clamp publishes f through the monotone max filter and returns the
// published (never-decreasing) value.
func (p *jobProgress) clamp(f float64) float64 {
	if f < 0 || math.IsNaN(f) {
		f = 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.maxSeen = max(p.maxSeen, min(f, 1))
	return p.maxSeen
}

// fraction returns the job's completion in [0, 1], monotone across
// calls: the mean of its cells' fractions.
func (p *jobProgress) fraction() float64 {
	p.mu.Lock()
	var f float64
	for _, c := range p.cells {
		f += c
	}
	if n := len(p.cells); n > 0 {
		f /= float64(n)
	}
	p.mu.Unlock()
	return p.clamp(f)
}

// sample returns a copy of the freshest epoch sample, or nil before any
// cell closed one.
func (p *jobProgress) sample() *engine.EpochSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.hasLast {
		return nil
	}
	s := p.last
	return &s
}

// status renders the job for the API. Callers hold the server mutex;
// a running job's progress is read under its own lock.
func (j *jobState) status(deduped bool) JobStatus {
	st := JobStatus{
		ID:       j.id,
		Key:      j.key,
		State:    j.state,
		Deduped:  deduped,
		Error:    j.err,
		Progress: j.progress,
		Epoch:    j.epoch,
		QueuedAt: j.queuedAt,
	}
	if j.run != nil {
		st.Progress, st.Epoch = j.run.progress.fraction(), j.run.progress.sample()
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
	canon, progress := js.run.canon, &js.run.progress
	out := &JobResult{Key: js.key, Kind: canon.Kind}
	epoch := sim.NS(canon.IntervalNS)
	cells, render, err := planJob(ctx, canon, out)
	if err != nil {
		return nil, err
	}
	n := len(cells)
	// streamed counts each cell's live epoch events. OnEpoch only fires
	// when the cell executes the simulation itself; a memo hit or a
	// joined in-flight run streams nothing live and flushes the whole
	// memoised series on completion — either way the cell's epoch-event
	// subsequence is exactly the series the result embeds.
	streamed, starts := make([]int, n), make([]time.Time, n)
	progress.setTotal(n)
	if canon.Trace {
		js.traces = make([]*xtrace.SimTrace, n)
	}
	h := experiments.Hooks{
		Start: func(i int) experiments.Observation {
			ob := experiments.Observation{Epoch: epoch, Metrics: canon.Metrics, Trace: canon.Trace}
			if epoch > 0 {
				lb := cells[i].Record()
				ob.OnEpoch = func(s engine.EpochSample) {
					streamed[i]++
					progress.epoch(i, s)
					js.stream.epoch(i, lb, s)
				}
			}
			starts[i] = time.Now()
			return ob
		},
		// Every cell retires, failed and cancelled ones too, so a failed
		// job's progress accounts for all attempted work instead of
		// freezing mid-matrix.
		Done: func(i int, in experiments.Instrumented, err error) {
			rec := cells[i].Record()
			if !starts[i].IsZero() {
				js.spans.Span("sim "+rec.Workload+"/"+rec.Policy, "cell", starts[i], time.Now(),
					"workload", rec.Workload, "policy", rec.Policy)
			}
			// A memo hit or a joined run streamed no epoch live, so its
			// series' last sample is offered here; for a live cell it
			// is the sample OnEpoch already published.
			if err == nil && len(in.Series) > 0 {
				progress.epoch(i, in.Series[len(in.Series)-1])
			}
			progress.retire(i)
			if err != nil {
				return
			}
			rec.Series = in.Series // nil for an unobserved run
			js.stream.flushSeries(i, rec, streamed[i])
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
