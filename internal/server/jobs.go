package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mellow/internal/core"
	"mellow/internal/engine"
	"mellow/internal/experiments"
	"mellow/internal/metrics"
	"mellow/internal/policy"
	"mellow/internal/sim"
	"mellow/internal/trace"
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
	// traces collects each simulation's execution timeline. runJob's
	// workers write disjoint slots; readers wait for done to close.
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
// Sim and compare matrices fan out in parallel; the process-wide
// scheduler (internal/sched) bounds total concurrent simulations across
// every job, so the fan-out cannot oversubscribe the machine. Each
// matrix cell writes its result (and series) into a slot fixed by its
// (workload, policy) loop index, so the payload keeps the exact
// sequential ordering — equal keys still yield equal bytes no matter
// which cells finish first.
func runJob(ctx context.Context, js *jobState) (*JobResult, error) {
	canon := js.canon
	out := &JobResult{Key: js.key, Kind: canon.Kind}
	epoch := sim.NS(canon.IntervalNS)
	switch canon.Kind {
	case KindSim, KindCompare:
		type cell struct {
			w      trace.Workload
			policy string
			spec   policy.Spec
		}
		cells := make([]cell, 0, len(canon.Workloads)*len(canon.Policies))
		for _, name := range canon.Workloads {
			w, err := trace.ByName(name)
			if err != nil {
				return nil, err
			}
			for _, p := range canon.Policies {
				spec, err := policy.Parse(p)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell{w: w, policy: p, spec: spec})
			}
		}
		js.progress.setTotal(len(cells))

		// The first failure cancels the siblings; every cell still
		// retires through endSim, so a failed job's progress accounts
		// for all attempted work instead of freezing mid-matrix.
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		results := make([]core.Result, len(cells))
		var series []experiments.SeriesRecord
		if epoch > 0 {
			series = make([]experiments.SeriesRecord, len(cells))
		}
		var snaps []*metrics.Snapshot
		if canon.Metrics {
			snaps = make([]*metrics.Snapshot, len(cells))
		}
		var traces []*xtrace.SimTrace
		if canon.Trace {
			traces = make([]*xtrace.SimTrace, len(cells))
		}
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
		)
		for i, cl := range cells {
			i, cl := i, cl
			wg.Add(1)
			go func() {
				defer wg.Done()
				var tr *engine.Tracker
				if epoch > 0 {
					tr = &engine.Tracker{}
				}
				js.progress.beginSim(tr)
				cellStart := time.Now()
				ob := experiments.Observation{Epoch: epoch, Tracker: tr,
					Metrics: canon.Metrics, Trace: canon.Trace}
				// streamed counts this cell's live epoch events. OnEpoch
				// only fires when this goroutine executes the simulation
				// itself; a memo hit or a joined in-flight run streams
				// nothing live and flushes the whole memoised series
				// below — either way the cell's epoch-event subsequence
				// is exactly the series the result embeds.
				streamed := 0
				if epoch > 0 && js.stream != nil {
					ob.OnEpoch = func(s engine.EpochSample) {
						streamed++
						js.stream.epoch(i, cl.w.Name, cl.policy, s)
					}
				}
				ins, err := experiments.Run(runCtx, canon.Config, cl.spec, cl.w, ob)
				js.spans.Span("sim "+cl.w.Name+"/"+cl.policy, "cell",
					cellStart, time.Now(), "workload", cl.w.Name, "policy", cl.policy)
				js.progress.endSim(tr)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
					return
				}
				results[i] = ins.Result
				if epoch > 0 {
					series[i] = experiments.SeriesRecord{
						Workload: cl.w.Name, Policy: cl.policy, Series: ins.Series}
					js.stream.flushSeries(i, cl.w.Name, cl.policy, ins.Series, streamed)
				}
				if canon.Metrics {
					snaps[i] = ins.Metrics
				}
				if canon.Trace {
					traces[i] = ins.Trace
				}
			}()
		}
		wg.Wait()
		js.traces = traces
		if firstErr != nil {
			return nil, firstErr
		}
		renderStart := time.Now()
		out.Results = results
		out.Series = series
		out.Metrics = snaps
		js.spans.Span("render", "job", renderStart, time.Now())
	case KindExperiment:
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
			// Experiments deliver whole series as each simulation
			// completes (OnSeries is serialized by the experiments layer),
			// so the stream carries each (workload, policy) series as one
			// contiguous run of epoch events with cell -1.
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
		out.Report = &ExperimentReport{ID: e.ID, Title: e.Title, Output: buf.String(), Series: records}
		js.spans.Span("render", "job", renderStart, time.Now())
	case KindScenario:
		// The scenario document was validated and normalized at admission;
		// its matrix fans out through the same memoised sched-governed path
		// as every other kind, and the cells land in matrix order — the
		// result document is the byte-stable golden form.
		res, err := experiments.RunScenario(ctx, canon.Config, canon.Scenario, js.progress.set)
		if err != nil {
			return nil, err
		}
		out.Scenario = res
	}
	return out, nil
}
