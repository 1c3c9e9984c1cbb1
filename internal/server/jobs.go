package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"mellow/internal/core"
	"mellow/internal/engine"
	"mellow/internal/experiments"
	"mellow/internal/metrics"
	"mellow/internal/sim"
	"mellow/internal/xtrace"
)

// jobState is one submitted job's lifecycle record. Mutable fields are
// guarded by the owning Server's mutex; done closes on completion. The
// progress tracker is lock-free so the status handler can read it while
// the job runs.
type jobState struct {
	id    string
	key   string
	canon canonicalJob
	// timeout caps execution; zero means the server default.
	timeout time.Duration

	state      string
	err        string
	result     *JobResult
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
	done       chan struct{}

	progress jobProgress

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

// jobProgress is a job's live completion state: simulations attempted
// out of the job's total, plus the live trackers of every simulation
// the job is running in parallel. Workers write concurrently; status
// readers see a monotone non-decreasing fraction through the maxSeen
// clamp (tracker handoffs between simulations could otherwise read a
// hair backwards). Failed and cancelled simulations count as attempted
// too, so a failed job's fraction accounts for all work the job tried
// rather than freezing at an arbitrary value.
type jobProgress struct {
	totalSims atomic.Uint64
	doneSims  atomic.Uint64
	active    engine.TrackerSet
	last      atomic.Pointer[engine.EpochSample]
	maxSeen   atomic.Uint64 // float64 bits
}

func (p *jobProgress) setTotal(n int) {
	if n > 0 {
		p.totalSims.Store(uint64(n))
	}
}

// beginSim registers a starting simulation's tracker (nil for
// unobserved runs, which contribute progress only on completion).
// Several simulations may be live at once — the job matrix runs in
// parallel under the process-wide scheduler.
func (p *jobProgress) beginSim(tr *engine.Tracker) { p.active.Add(tr) }

// endSim retires one simulation: its freshest epoch sample is kept for
// the status, its tracker leaves the active set, and the attempted
// count advances — on success, failure and cancellation alike.
func (p *jobProgress) endSim(tr *engine.Tracker) {
	if tr != nil {
		if s := tr.Sample(); s != nil {
			p.keepLast(s)
		}
		p.active.Remove(tr)
	}
	p.doneSims.Add(1)
}

// keepLast retains the freshest (greatest end tick) retired sample;
// parallel simulations retire in any order.
func (p *jobProgress) keepLast(s *engine.EpochSample) {
	for {
		old := p.last.Load()
		if old != nil && old.End >= s.End {
			return
		}
		if p.last.CompareAndSwap(old, s) {
			return
		}
	}
}

// set records sweep progress reported by the experiments layer.
func (p *jobProgress) set(done, total int) {
	p.setTotal(total)
	if done >= 0 {
		p.doneSims.Store(uint64(done))
	}
}

// finish pins the fraction at 1 (job completed successfully).
func (p *jobProgress) finish() { p.clamp(1) }

// clamp publishes f through the monotone max filter and returns the
// published (never-decreasing) value.
func (p *jobProgress) clamp(f float64) float64 {
	if f < 0 || math.IsNaN(f) {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	for {
		old := p.maxSeen.Load()
		if math.Float64frombits(old) >= f {
			return math.Float64frombits(old)
		}
		if p.maxSeen.CompareAndSwap(old, math.Float64bits(f)) {
			return f
		}
	}
}

// fraction returns the job's completion in [0, 1], monotone across
// calls: attempted simulations plus the summed fractions of every
// simulation currently in flight, over the job's total.
func (p *jobProgress) fraction() float64 {
	total := p.totalSims.Load()
	if total == 0 {
		return p.clamp(0)
	}
	f := float64(p.doneSims.Load()) + p.active.SumProgress()
	return p.clamp(f / float64(total))
}

// sample returns the freshest epoch sample: the furthest-along running
// simulation's, or the last one a finished simulation left behind.
func (p *jobProgress) sample() *engine.EpochSample {
	if s := p.active.Freshest(); s != nil {
		return s
	}
	return p.last.Load()
}

// status renders the job for the API. Callers hold the server mutex;
// the progress fields are read through their own atomics.
func (j *jobState) status(deduped bool) JobStatus {
	st := JobStatus{
		ID:       j.id,
		Key:      j.key,
		State:    j.state,
		Deduped:  deduped,
		Error:    j.err,
		Progress: j.progress.fraction(),
		Epoch:    j.progress.sample(),
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
		st.Result = j.result
	}
	return st
}

// sortSeriesRecords puts sweep series in a canonical order: OnSeries
// delivers them in completion order, which is nondeterministic, but
// result bytes must be equal for equal keys. Records are keyed by
// (workload, policy) and — since one experiment can run the same pair
// under several configs — tie-broken by their full JSON encoding, so
// any remaining ties are byte-identical and order-irrelevant.
func sortSeriesRecords(records []experiments.SeriesRecord) {
	keys := make([]string, len(records))
	for i, r := range records {
		b, err := json.Marshal(r)
		if err != nil {
			b = []byte(r.Workload + "/" + r.Policy)
		}
		keys[i] = r.Workload + "\x00" + r.Policy + "\x00" + string(b)
	}
	sort.Sort(&recordSorter{records: records, keys: keys})
}

type recordSorter struct {
	records []experiments.SeriesRecord
	keys    []string
}

func (s *recordSorter) Len() int           { return len(s.records) }
func (s *recordSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *recordSorter) Swap(i, j int) {
	s.records[i], s.records[j] = s.records[j], s.records[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// runJob executes one job's simulations through the memoised harness,
// so identical sub-simulations across different jobs run once. A
// positive interval_ns runs them observed: per-epoch series land in the
// result and the jobState's progress trackers feed the status API live.
//
// Every kind but experiment is one scenario matrix (canonicalJob.matrix)
// run through experiments.RunScenario: the process-wide scheduler
// (internal/sched) bounds total concurrent simulations across every job,
// and results come back in matrix slot order — the payload and the SSE
// cell index keep the exact sequential ordering, so equal keys still
// yield equal bytes no matter which cells finish first. Only rendering
// differs by kind: a scenario job returns the scenario document, a sim
// or compare job its flat Results (plus Series and Metrics).
func runJob(ctx context.Context, js *jobState) (*JobResult, error) {
	canon := js.canon
	out := &JobResult{Key: js.key, Kind: canon.Kind}
	epoch := sim.NS(canon.IntervalNS)
	if canon.Kind == KindExperiment {
		rep, err := runExperiment(ctx, js, epoch)
		if err != nil {
			return nil, err
		}
		out.Report = rep
		return out, nil
	}
	sc := canon.matrix()
	refs := sc.Cells()
	// label names cell i as the request spelled it.
	label := func(i int) (string, string) { return refs[i].Workload.Name, refs[i].Policy }
	js.progress.setTotal(len(refs))
	ins := make([]experiments.Instrumented, len(refs))
	trackers := make([]*engine.Tracker, len(refs))
	starts := make([]time.Time, len(refs))
	// streamed counts each cell's live epoch events. OnEpoch only fires
	// when the cell executes the simulation itself; a memo hit or a
	// joined in-flight run streams nothing live and flushes the whole
	// memoised series on completion — either way the cell's epoch-event
	// subsequence is exactly the series the result embeds.
	streamed := make([]int, len(refs))
	if canon.Trace {
		js.traces = make([]*xtrace.SimTrace, len(refs))
	}
	res, err := experiments.RunScenario(ctx, canon.Config, sc, experiments.Hooks{
		Start: func(i int) experiments.Observation {
			ob := experiments.Observation{Epoch: epoch, Metrics: canon.Metrics, Trace: canon.Trace}
			if epoch > 0 {
				trackers[i] = &engine.Tracker{}
				ob.Tracker = trackers[i]
				if js.stream != nil {
					w, p := label(i)
					ob.OnEpoch = func(s engine.EpochSample) {
						streamed[i]++
						js.stream.epoch(i, w, p, s)
					}
				}
			}
			js.progress.beginSim(trackers[i])
			starts[i] = time.Now()
			return ob
		},
		// Every cell retires through endSim, failed and cancelled ones
		// too, so a failed job's progress accounts for all attempted
		// work instead of freezing mid-matrix.
		Done: func(i int, in experiments.Instrumented, err error) {
			w, p := label(i)
			if !starts[i].IsZero() {
				js.spans.Span("sim "+w+"/"+p, "cell", starts[i], time.Now(), "workload", w, "policy", p)
			}
			js.progress.endSim(trackers[i])
			if err != nil {
				return
			}
			ins[i] = in
			if epoch > 0 {
				js.stream.flushSeries(i, w, p, in.Series, streamed[i])
			}
			if canon.Trace {
				js.traces[i] = in.Trace
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if canon.Kind == KindScenario {
		out.Scenario = res
		return out, nil
	}
	renderStart := time.Now()
	out.Results = make([]core.Result, len(ins))
	if epoch > 0 {
		out.Series = make([]experiments.SeriesRecord, len(ins))
	}
	if canon.Metrics {
		out.Metrics = make([]*metrics.Snapshot, len(ins))
	}
	for i, in := range ins {
		out.Results[i] = in.Result
		if epoch > 0 {
			w, p := label(i)
			out.Series[i] = experiments.SeriesRecord{Workload: w, Policy: p, Series: in.Series}
		}
		if canon.Metrics {
			out.Metrics[i] = in.Metrics
		}
	}
	js.spans.Span("render", "job", renderStart, time.Now())
	return out, nil
}

// runExperiment regenerates an experiment job's paper artifact.
func runExperiment(ctx context.Context, js *jobState, epoch sim.Tick) (*ExperimentReport, error) {
	canon := js.canon
	e, err := experiments.ByID(canon.Experiment)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var records []experiments.SeriesRecord
	opts := experiments.Options{
		Ctx:        ctx,
		Cfg:        canon.Config,
		Out:        &buf,
		Workloads:  canon.Workloads,
		OnProgress: js.progress.set,
	}
	if epoch > 0 {
		opts.Epoch = epoch
		// Experiments deliver whole series as each simulation completes
		// (OnSeries is serialized by the experiments layer), so the stream
		// carries each (workload, policy) series as one contiguous run of
		// epoch events with cell -1.
		opts.OnSeries = func(rec experiments.SeriesRecord) {
			records = append(records, rec)
			js.stream.flushSeries(-1, rec.Workload, rec.Policy, rec.Series, 0)
		}
	}
	if canon.Trace {
		opts.Trace = true
		opts.OnTrace = func(rec experiments.TraceRecord) {
			js.traces = append(js.traces, rec.Trace)
		}
	}
	if err := e.Run(opts); err != nil {
		return nil, err
	}
	renderStart := time.Now()
	sortSeriesRecords(records)
	rep := &ExperimentReport{ID: e.ID, Title: e.Title, Output: buf.String(), Series: records}
	js.spans.Span("render", "job", renderStart, time.Now())
	return rep, nil
}
