// Package server is the mellowd simulation service: a JSON API that
// turns the deterministic, memoised simulation harness into a shared,
// long-lived daemon. Jobs are admitted into a bounded queue (load past
// the bound is shed with 429), executed by a fixed worker pool, and
// deduplicated two ways — identical in-flight submissions join one job
// (singleflight), and finished work is served from a content-addressed
// result cache keyed on the canonical hash of (config, workload,
// policy, seed, run lengths).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mellow/internal/config"
	"mellow/internal/joblog"
	"mellow/internal/metrics"
	"mellow/internal/sched"
	"mellow/internal/xtrace"
)

// Config sets the service's capacity knobs; zero values take defaults.
type Config struct {
	// Workers sizes the job worker pool (default: GOMAXPROCS). Workers
	// bound concurrent *jobs*; concurrent *simulations* are bounded
	// process-wide by SimBudget, however many jobs fan out at once.
	Workers int
	// SimBudget sets the process-wide simulation scheduler's slot
	// budget (default: GOMAXPROCS). It is the hard cap on in-flight
	// simulations across all jobs, sweeps and benchmarks in this
	// process.
	SimBudget int
	// QueueDepth bounds the admission queue; submissions beyond it are
	// shed with 429 + Retry-After (default: 4 × workers).
	QueueDepth int
	// JobTimeout caps each job's execution (default: 15 minutes).
	JobTimeout time.Duration
	// MaxResults bounds the finished-job/result cache (default: 1024).
	MaxResults int
	// BaseConfig seeds every job's configuration before per-request
	// overrides (default: the paper's baseline).
	BaseConfig *config.Config
	// Logger receives structured request and job logs (default: slog's
	// default logger).
	Logger *slog.Logger
	// JobLog, when set, is the write-ahead job log: every admission is
	// recorded (and fsynced) before it is acknowledged, lifecycle
	// transitions are appended as they happen, and Restore re-enqueues
	// the log's unfinished jobs after a crash. Nil disables durability.
	JobLog *joblog.Log
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.SimBudget <= 0 {
		c.SimBudget = runtime.GOMAXPROCS(0)
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 15 * time.Minute
	}
	if c.MaxResults <= 0 {
		c.MaxResults = 1024
	}
	if c.BaseConfig == nil {
		d := config.Default()
		c.BaseConfig = &d
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is one mellowd instance: worker pool, queue, and caches.
type Server struct {
	cfg Config
	log *slog.Logger
	met *telemetry

	// runCtx is cancelled only on hard stop (drain deadline exceeded);
	// a graceful drain lets in-flight simulations finish under it.
	runCtx  context.Context
	hardTop context.CancelFunc

	queue chan *jobState
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	jobs     map[string]*jobState // by id, bounded via finished
	byKey    map[string]*jobState // latest job per content address
	finished []string             // finished job ids, eviction order
	nextID   atomic.Uint64

	// exec runs one job; tests replace it to control timing.
	exec func(ctx context.Context, js *jobState) (*JobResult, error)
	// streamBound bounds each job's epoch log (0: DefaultStreamBuffer);
	// tests lower it to truncate a stream.
	streamBound int
}

// New builds a Server and starts its worker pool. The process-wide
// simulation scheduler is resized to cfg.SimBudget: every simulation
// any job runs must hold a scheduler slot, so W concurrent jobs can
// never oversubscribe the machine W-fold.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	sched.Default().SetBudget(int64(cfg.SimBudget))
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		runCtx:  ctx,
		hardTop: cancel,
		queue:   make(chan *jobState, cfg.QueueDepth),
		jobs:    map[string]*jobState{},
		byKey:   map[string]*jobState{},
		exec:    runJob,
	}
	s.met = newTelemetry(s.queueInfo)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) worker() {
	defer s.wg.Done()
	for js := range s.queue {
		s.execute(js)
	}
}

func (s *Server) execute(js *jobState) {
	s.mu.Lock()
	js.state = StateRunning
	js.startedAt = time.Now()
	timeout := js.run.timeout
	s.mu.Unlock()
	s.logAppend(false, joblog.Record{Type: joblog.TypeStart, ID: js.id, Key: js.key})
	s.met.observeWait(js.startedAt.Sub(js.queuedAt))
	s.met.running.Add(1)
	defer s.met.running.Add(-1)

	if timeout <= 0 || timeout > s.cfg.JobTimeout {
		timeout = s.cfg.JobTimeout
	}
	js.spans.Span("queued", "job", js.queuedAt, js.startedAt)
	ctx, cancel := context.WithTimeout(s.runCtx, timeout)
	// The span recorder travels in the context so lower layers (the
	// scheduler's parked acquires) stamp their own phases.
	ctx = xtrace.NewContext(ctx, js.spans)
	res, err := s.exec(ctx, js)
	cancel()

	// The result is packed before the job is published as finished.
	var held heldResult
	if err == nil {
		held = holdResult(res)
	}
	s.mu.Lock()
	js.finishedAt = time.Now()
	if err != nil {
		js.state = StateFailed
		js.err = err.Error()
		s.met.failed.Add(1)
	} else {
		js.state = StateDone
		js.result = held
		s.met.completed.Add(1)
	}
	// Sealed under the mutex with the final state, so no status read
	// sees a finished job's open log; a done job's log reads its
	// samples from the held result from now on.
	js.epochs.seal(js.err, &js.result)
	js.run = nil
	s.finished = append(s.finished, js.id)
	s.evictLocked()
	elapsed := js.finishedAt.Sub(js.startedAt)
	s.mu.Unlock()
	close(js.done)
	if err != nil {
		s.logAppend(false, joblog.Record{Type: joblog.TypeFail, ID: js.id, Key: js.key, Error: js.err})
	} else {
		s.logAppend(false, joblog.Record{Type: joblog.TypeFinish, ID: js.id, Key: js.key})
	}

	js.spans.Span("run", "job", js.startedAt, js.finishedAt,
		"kind", js.kind, "state", js.state)
	s.met.observe(js.kind, elapsed)
	// The content address rides on the log line so clients can re-find
	// this work by key after a restart re-assigns process-local ids.
	s.log.Info("job finished",
		"id", js.id, "key", js.key, "kind", js.kind, "state", js.state,
		"trace_id", js.spans.TraceID(),
		"elapsed_ms", elapsed.Milliseconds(), "err", js.err)
}

// logAppend records lifecycle transitions in the write-ahead job log.
// Only admits are fsynced (syncNow); losing a finish to a crash merely
// re-runs deterministic work. Append failures are logged, never fatal —
// availability over durability for everything past admission.
func (s *Server) logAppend(syncNow bool, recs ...joblog.Record) error {
	if s.cfg.JobLog == nil {
		return nil
	}
	if err := s.cfg.JobLog.Append(syncNow, recs...); err != nil {
		s.log.Error("joblog append failed", "err", err)
		return err
	}
	s.met.joblogEntries.Add(uint64(len(recs)))
	return nil
}

// evictLocked bounds the finished-job cache FIFO. Callers hold s.mu.
func (s *Server) evictLocked() {
	for len(s.finished) > s.cfg.MaxResults {
		id := s.finished[0]
		s.finished = s.finished[1:]
		js := s.jobs[id]
		delete(s.jobs, id)
		if js != nil && s.byKey[js.key] == js {
			delete(s.byKey, js.key)
		}
	}
}

// Submit admits one request: returns the job's status plus the HTTP
// code the API reports (202 accepted, 200 deduped/cached, 429 shed,
// 503 draining, 400 invalid, 500 job log failure). It is the one-entry
// case of SubmitBatch, with unprefixed errors.
func (s *Server) Submit(req JobRequest) (JobStatus, int, error) {
	sts, code, err := s.admit([]JobRequest{req}, false)
	if err != nil {
		return JobStatus{}, code, err
	}
	return sts[0], code, nil
}

// SubmitBatch admits a set of requests as one shed/accept decision:
// either every entry is answered (by cache, by joining an active job, or
// by a fresh enqueue) or the whole batch is rejected. Fresh entries are
// admitted with a single fsync of all their admit records. The returned
// statuses align with the request order; the HTTP code is 202 when
// anything was enqueued, 200 when every entry was already answered.
// Errors about one entry are prefixed "jobs[i]: ".
func (s *Server) SubmitBatch(breq BatchRequest) ([]JobStatus, int, error) {
	if len(breq.Jobs) == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("batch needs at least one job")
	}
	return s.admit(breq.Jobs, true)
}

// admit is the one admission core behind Submit and SubmitBatch. Every
// entry is normalized, then answered by the active job of its key (a
// result-cache hit or a singleflight join — even while draining), by an
// earlier entry of the same call, or by a fresh job. Only fresh jobs
// need a queue slot: while draining they get 503, and if they do not
// all fit the queue the whole call is shed with 429. Their admit
// records reach disk in one fsync before any of them is published.
func (s *Server) admit(reqs []JobRequest, batch bool) ([]JobStatus, int, error) {
	entryErr := func(i int, err error) error {
		if batch {
			return fmt.Errorf("jobs[%d]: %v", i, err)
		}
		return err
	}
	canons := make([]canonicalJob, len(reqs))
	keys := make([]string, len(reqs))
	for i, req := range reqs {
		var err error
		if canons[i], keys[i], err = normalize(req, *s.cfg.BaseConfig); err != nil {
			return nil, http.StatusBadRequest, entryErr(i, err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Resolve every entry before deciding anything; identical fresh
	// entries share one queue slot.
	prev := make([]*jobState, len(reqs))
	fresh := map[string]*jobState{} // minted below
	for i, key := range keys {
		if prev[i] = s.activeLocked(key); prev[i] == nil {
			fresh[key] = nil
		}
	}
	if len(fresh) > 0 {
		if s.draining {
			return nil, http.StatusServiceUnavailable, fmt.Errorf("server is draining")
		}
		// Capacity is checked under s.mu, and every queue sender holds
		// s.mu (workers only drain), so the sends in publishLocked cannot
		// block.
		if free := cap(s.queue) - len(s.queue); len(fresh) > free {
			s.met.shed.Add(1)
			return nil, http.StatusTooManyRequests,
				fmt.Errorf("queue full: %d free slots, %d needed", free, len(fresh))
		}
	}

	statuses := make([]JobStatus, len(reqs))
	var newJobs []*jobState
	var recs []joblog.Record
	for i, req := range reqs {
		js, joined := prev[i], true
		if js == nil {
			js = fresh[keys[i]]
		}
		if js == nil {
			id := fmt.Sprintf("job-%06d", s.nextID.Add(1))
			js, joined = s.newJob(id, canons[i], keys[i], req.TimeoutSeconds), false
			rec, err := admitRecord(js, req)
			if err != nil {
				return nil, http.StatusInternalServerError, entryErr(i, err)
			}
			fresh[keys[i]] = js
			newJobs = append(newJobs, js)
			recs = append(recs, rec)
		} else if js.state == StateDone {
			s.met.resultHit.Add(1)
		} else {
			s.met.deduped.Add(1)
		}
		statuses[i] = js.status(joined)
	}
	// Durability barrier: the admit records reach disk (fsync) before
	// any job is enqueued or acknowledged. A crash after the 202 then
	// finds the job in the log and replays it; a crash before loses only
	// work the client was never promised.
	if err := s.logAppend(true, recs...); err != nil {
		return nil, http.StatusInternalServerError, fmt.Errorf("job log write failed: %v", err)
	}
	for _, js := range newJobs {
		s.publishLocked(js)
	}
	if len(newJobs) == 0 {
		return statuses, http.StatusOK, nil
	}
	return statuses, http.StatusAccepted, nil
}

// activeLocked returns the job that answers key without new work: a
// finished one (a result-cache hit) or a queued or running one (a
// singleflight join). A failed job does not poison its key: nil means
// key needs a fresh job. Callers hold s.mu.
func (s *Server) activeLocked(key string) *jobState {
	if js := s.byKey[key]; js != nil && js.state != StateFailed {
		return js
	}
	return nil
}

// publishLocked enqueues an admitted job and makes it findable by id
// and by key. Callers hold s.mu and have checked the queue has room.
func (s *Server) publishLocked(js *jobState) {
	s.queue <- js
	s.jobs[js.id] = js
	s.byKey[js.key] = js
	s.met.accepted.Add(1)
}

// newJob builds a queued jobState under id: a freshly minted one, or
// the logged id of a replayed job.
func (s *Server) newJob(id string, canon canonicalJob, key string, timeoutSeconds float64) *jobState {
	js := &jobState{
		id:       id,
		key:      key,
		kind:     canon.Kind,
		state:    StateQueued,
		queuedAt: time.Now(),
		done:     make(chan struct{}),
		run:      &jobRun{canon: canon},
		epochs:   newEpochLog(s.streamBound, s.met.streamDropped),
	}
	if timeoutSeconds > 0 {
		js.run.timeout = time.Duration(timeoutSeconds * float64(time.Second))
	}
	if canon.Trace {
		js.spans = xtrace.NewSpanRecorder("")
	}
	return js
}

// admitRecord builds a job's write-ahead admit record. The original
// request rides in the payload so replay re-normalizes it against the
// (possibly restarted) server's base configuration.
func admitRecord(js *jobState, req JobRequest) (joblog.Record, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return joblog.Record{}, fmt.Errorf("job not serialisable: %v", err)
	}
	return joblog.Record{
		Type: joblog.TypeAdmit, ID: js.id, Key: js.key,
		Job: body, TimeoutSeconds: req.TimeoutSeconds,
	}, nil
}

// Restore replays the write-ahead job log: every admitted-but-unfinished
// job is re-enqueued under its original id (clients polling a pre-crash
// id find their work again), and the id counter is seeded past the
// largest id the previous process minted so new submissions can never
// collide with replayed ones. Call it once after New; it may run
// concurrently with live traffic — a client re-submitting replayed work
// simply joins it.
func (s *Server) Restore() (int, error) {
	l := s.cfg.JobLog
	if l == nil {
		return 0, nil
	}
	recs := l.Records()

	// Seed the id counter from every record, finished jobs included — a
	// restart must never hand a new job an id the old process used.
	var maxID uint64
	for _, r := range recs {
		if n, err := strconv.ParseUint(strings.TrimPrefix(r.ID, "job-"), 10, 64); err == nil && n > maxID {
			maxID = n
		}
	}
	for {
		cur := s.nextID.Load()
		if cur >= maxID || s.nextID.CompareAndSwap(cur, maxID) {
			break
		}
	}

	restored := 0
	for _, rec := range joblog.Pending(recs) {
		var req JobRequest
		if err := json.Unmarshal(rec.Job, &req); err != nil {
			s.log.Error("joblog: replayed admit not decodable, skipping",
				"id", rec.ID, "err", err)
			continue
		}
		canon, key, err := normalize(req, *s.cfg.BaseConfig)
		if err != nil {
			s.log.Error("joblog: replayed job no longer valid, skipping",
				"id", rec.ID, "err", err)
			continue
		}
		if key != rec.Key {
			s.log.Warn("joblog: replayed job re-keyed (base config changed?)",
				"id", rec.ID, "logged_key", rec.Key, "key", key)
		}
		js := s.newJob(rec.ID, canon, key, rec.TimeoutSeconds)
		ok, err := s.enqueueReplayed(js)
		if err != nil {
			return restored, err
		}
		if ok {
			restored++
			s.log.Info("joblog: job replayed", "id", js.id, "key", js.key)
		}
	}
	s.met.replayed.Set(float64(restored))
	return restored, nil
}

// enqueueReplayed admits one replayed job. Unlike admit it never sheds:
// it waits for queue space — the log can hold more pending jobs than the
// queue bound, and the workers are already draining it. Returns false
// when the job's key is already active (a client beat the replay to it).
func (s *Server) enqueueReplayed(js *jobState) (bool, error) {
	for {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return false, fmt.Errorf("server is draining")
		}
		if s.activeLocked(js.key) != nil {
			s.mu.Unlock()
			return false, nil
		}
		if len(s.queue) < cap(s.queue) {
			s.publishLocked(js)
			s.mu.Unlock()
			return true, nil
		}
		s.mu.Unlock()
		time.Sleep(10 * time.Millisecond)
	}
}

// Job returns one job's status by id.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return js.status(false), true
}

// Result returns the content-addressed result for key, if finished,
// rebuilt afresh on every call.
func (s *Server) Result(key string) (*JobResult, bool) {
	s.mu.Lock()
	js, ok := s.byKey[key]
	if !ok || js.state != StateDone {
		s.mu.Unlock()
		return nil, false
	}
	held, kind := js.result, js.kind
	s.mu.Unlock()
	return held.get(key, kind), true
}

// Shutdown drains gracefully: stop admitting, let workers finish every
// queued and in-flight job, and return. If ctx expires first, in-flight
// simulations are cancelled at their next checkpoint and ctx's error is
// returned once the pool exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.hardTop()
		<-done
		return ctx.Err()
	}
}

// Handler returns the service's HTTP API with request logging.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs:batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.logRequests(mux)
}

// maxBodyBytes bounds request bodies; a full Config is ~2 KB.
const maxBodyBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	st, code, err := s.Submit(req)
	if err == nil {
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
	}
	writeAdmission(w, code, st, err)
}

// handleSubmitBatch serves POST /v1/jobs:batch: many submissions, one
// shed/accept decision, one fsync for all the fresh admits.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var breq BatchRequest
	if !decodeBody(w, r, &breq) {
		return
	}
	sts, code, err := s.SubmitBatch(breq)
	writeAdmission(w, code, BatchResponse{Jobs: sts}, err)
}

// decodeBody strictly decodes a bounded JSON request body into v; on
// failure it answers 400 itself and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, APIError{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// writeAdmission answers a submission with body, or with err as an
// APIError; the retryable 429 and 503 carry Retry-After.
func writeAdmission(w http.ResponseWriter, code int, body any, err error) {
	if err != nil {
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		body = APIError{Error: err.Error()}
	}
	writeJSON(w, code, body)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, APIError{Error: "unknown job id"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobTrace serves a finished traced job's execution trace as
// Chrome Trace Event Format JSON (loadable in Perfetto). The trace is
// a separate artifact from the job result, which stays byte-identical
// to an untraced run's.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	js, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, APIError{Error: "unknown job id"})
		return
	}
	if js.spans == nil {
		writeJSON(w, http.StatusNotFound, APIError{Error: `job was not submitted with "trace": true`})
		return
	}
	select {
	case <-js.done:
	default:
		writeJSON(w, http.StatusConflict, APIError{Error: "job not finished; poll GET /v1/jobs/{id}"})
		return
	}
	doc := &xtrace.Doc{
		TraceID: js.spans.TraceID(),
		Origin:  js.queuedAt,
		Spans:   js.spans.Spans(),
		Sims:    js.traces,
	}
	w.Header().Set("Content-Type", "application/json")
	if err := doc.WriteChrome(w); err != nil {
		s.log.Error("trace render failed", "id", js.id, "err", err)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, ok := s.Result(r.PathValue("key"))
	if !ok {
		writeJSON(w, http.StatusNotFound, APIError{Error: "no finished result for key"})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := struct {
		Status    string `json:"status"`
		Jobs      int    `json:"jobs"`
		Queue     int    `json:"queue_depth"`
		Workers   int    `json:"workers"`
		SimBudget int    `json:"sim_budget"`
	}{"ok", len(s.jobs), len(s.queue), s.cfg.Workers, s.cfg.SimBudget}
	if s.draining {
		st.Status = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// queueInfo reports queue occupancy for the snapshot-time gauges.
func (s *Server) queueInfo() queueInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return queueInfo{
		depth:    len(s.queue),
		capacity: s.cfg.QueueDepth,
		workers:  s.cfg.Workers,
		results:  len(s.finished),
	}
}

// Metrics returns a point-in-time snapshot of the process registry —
// the same families /metrics renders, in the JSON-codec form.
func (s *Server) Metrics() metrics.Snapshot { return s.met.snapshot() }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The snapshot is taken first (collectors hold their own locks only
	// while it is built); rendering to however slow a scraper happens
	// with nothing held, so scrapes never block job completions.
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before touching the response so an encoding failure can
	// still become a 500 instead of a truncated 2xx.
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"response not serialisable"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// Flush delegates so the SSE handler's Flusher assertion sees through
// the logging wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.NewResponseController.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path,
			"status", rec.code, "bytes", rec.bytes,
			"dur_ms", strconv.FormatFloat(float64(time.Since(start).Microseconds())/1000, 'f', 3, 64))
	})
}
