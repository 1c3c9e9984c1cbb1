package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mellow"
	"mellow/internal/experiments"
	"mellow/internal/joblog"
	"mellow/internal/server"
)

// The service mix: a closed loop of serviceClients clients, each sending
// its next job only after the previous one's result is in hand. Job i of
// the sequence is a function of the seed and i alone:
//
//	40% fresh short sim jobs with unique seeds
//	10% fresh sim jobs with interval_ns (epoch probe, series encoding)
//	10% fresh 2×2 compare jobs (fan-out through the scheduler)
//	40% resubmissions of earlier jobs, answered by the result cache
const (
	serviceClients = 2
	// jobDetailed is every job's detailed window; jobs run no warm-up,
	// so a fresh simulation takes milliseconds.
	jobDetailed = 100_000
	// jobIntervalNS is the epoch period of observed jobs: a few dozen
	// samples per simulation.
	jobIntervalNS = 5_000
	// resubmitWindow bounds how far back a resubmission reaches, well
	// inside the server's 1024-entry result cache.
	resubmitWindow = 512
	// reuseWindow bounds how far back among the plain sims a compare job
	// reaches for its seed: at most four memo entries per job are
	// inserted since, well inside the memo's 4096 entries, so a cell
	// issued before is always still in the memo.
	reuseWindow = 256
	// serviceDigestOps is how many leading jobs the digest covers.
	serviceDigestOps = 200
	// tracedCompareEvery samples the compare jobs a traced run submits
	// with trace:true.
	tracedCompareEvery = 8
)

type service struct {
	seed   uint64
	traced bool

	dir       string
	wal       *joblog.Log
	svc       *server.Server
	hs        *http.Server
	serveDone chan error
	base      string
	client    *http.Client

	workloads, policies []string

	began time.Time // when the measured run began

	mu       sync.Mutex
	rng      *rand.Rand
	next     int
	compares int
	fresh    []job               // fresh jobs issued so far, in order
	plain    []server.JobRequest // the plain (unobserved) sim subset
	issued   map[memoKey]bool    // every simulation a fresh job has asked for
	first    map[string][32]byte // result hash of each key's first fetch
	hashes   map[int][32]byte    // result hash by job index, for the digest
}

func newService(seed uint64, traced bool) (session, error) {
	dir, err := os.MkdirTemp(scratchDir, "service-")
	if err != nil {
		return nil, err
	}
	s := &service{
		seed: seed, traced: traced, dir: dir,
		workloads: mellow.Workloads(),
		rng:       rand.New(rand.NewPCG(seed, 0x6d656c6c6f77)),
		first:     map[string][32]byte{},
		hashes:    map[int][32]byte{},
		issued:    map[memoKey]bool{},
		serveDone: make(chan error, 1),
	}
	for _, p := range mellow.Policies() {
		s.policies = append(s.policies, p.Name)
	}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// start brings up mellowd in process with a write-ahead job log, serves
// it on a loopback port and waits until it answers /healthz.
func (s *service) start() error {
	var err error
	if s.wal, err = joblog.Open(filepath.Join(s.dir, "jobs.wal")); err != nil {
		return err
	}
	base := mellow.DefaultConfig()
	s.svc = server.New(server.Config{
		Workers:    serviceProcs,
		SimBudget:  serviceProcs,
		BaseConfig: &base,
		// Records are formatted as mellowd formats them, then dropped.
		Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)),
		JobLog: s.wal,
	})
	if _, err := s.svc.Restore(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.serveDone <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}}
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.hs != nil {
		errs = append(errs, s.hs.Shutdown(ctx))
		if err := <-s.serveDone; err != http.ErrServerClosed {
			errs = append(errs, err)
		}
	}
	if s.svc != nil {
		errs = append(errs, s.svc.Shutdown(ctx))
	}
	if s.wal != nil {
		errs = append(errs, s.wal.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// job is one request of the sequence.
type job struct {
	req server.JobRequest
	// memoServed holds the cells (workload/policy) that an earlier fresh
	// job of the sequence already asked for. Whichever job reaches the
	// memo second is served by it, or joins the first one's flight, so
	// the work of such a cell is counted once, for the earlier job.
	memoServed map[string]bool
}

// memoKey is one simulation's identity in the memo: jobs that share it
// share one simulation. Observed and traced simulations have keys of
// their own.
type memoKey struct {
	seed             uint64
	workload, policy string
	observed, traced bool
}

// nextJob hands out the next job of the sequence. It runs under s.mu,
// in index order, so the sequence depends on the seed alone.
func (s *service) nextJob() (int, job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.next
	s.next++
	u := s.rng.Float64()
	if u >= 0.60 && len(s.fresh) > 0 {
		lo := max(0, len(s.fresh)-resubmitWindow)
		return i, s.fresh[lo+s.rng.IntN(len(s.fresh)-lo)]
	}
	seed := derive(s.seed, uint64(i))
	detailed, warmup := uint64(jobDetailed), uint64(0)
	req := server.JobRequest{Kind: server.KindSim, Seed: &seed, Detailed: &detailed, Warmup: &warmup}
	w1, w2 := s.pick2(s.workloads)
	p1, p2 := s.pick2(s.policies)
	switch {
	case u < 0.50:
		req.Workload, req.Policy = w1, p1
		if u >= 0.40 {
			req.IntervalNS = jobIntervalNS
		} else {
			s.plain = append(s.plain, req)
		}
	default:
		// A compare job reuses an earlier plain sim's seed and cell, so
		// one of its four simulations comes from the memo cache.
		req.Kind = server.KindCompare
		if len(s.plain) > 0 {
			lo := max(0, len(s.plain)-reuseWindow)
			prev := s.plain[lo+s.rng.IntN(len(s.plain)-lo)]
			req.Seed = prev.Seed
			w1, p1 = prev.Workload, prev.Policy
			for w2 == w1 {
				w2 = s.workloads[s.rng.IntN(len(s.workloads))]
			}
			for p2 == p1 {
				p2 = s.policies[s.rng.IntN(len(s.policies))]
			}
		}
		req.Workloads = []string{w1, w2}
		req.Policies = []string{p1, p2}
		// Only compare jobs park in the scheduler, so only they carry a
		// trace in the traced run, and only one in tracedCompareEvery: a
		// job trace also records and renders every simulated bank event,
		// whose cost would swamp the layers the run attributes.
		req.Trace = s.traced && s.compares%tracedCompareEvery == 0
		s.compares++
	}
	j := job{req: req}
	for _, w := range cellsOf(req.Workload, req.Workloads) {
		for _, p := range cellsOf(req.Policy, req.Policies) {
			k := memoKey{*req.Seed, w, p, req.IntervalNS > 0, req.Trace}
			if s.issued[k] {
				if j.memoServed == nil {
					j.memoServed = map[string]bool{}
				}
				j.memoServed[w+"/"+p] = true
			}
			s.issued[k] = true
		}
	}
	s.fresh = append(s.fresh, j)
	return i, j
}

// cellsOf lists a job's workloads or policies: the list of a compare
// job, the single name of a sim job.
func cellsOf(one string, list []string) []string {
	if len(list) > 0 {
		return list
	}
	return []string{one}
}

// pick2 draws two distinct entries.
func (s *service) pick2(xs []string) (string, string) {
	i := s.rng.IntN(len(xs))
	j := s.rng.IntN(len(xs) - 1)
	if j >= i {
		j++
	}
	return xs[i], xs[j]
}

func (s *service) run(deadline time.Time) *tally {
	memo0 := experiments.CacheSnapshot()
	s.began = time.Now()
	tallies := make([]*tally, serviceClients)
	var wg sync.WaitGroup
	for c := range tallies {
		t := &tally{}
		tallies[c] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i, j := s.nextJob()
				t.attempted++
				if err := s.op(i, j, t); err != nil {
					t.failed++
					fmt.Fprintf(os.Stderr, "perfbench: job %d: %v\n", i, err)
				}
			}
		}()
	}
	wg.Wait()
	t := &tally{wall: time.Since(s.began), digestOps: serviceDigestOps, tailQ: 0.99}
	for _, ct := range tallies {
		t.merge(ct)
	}
	steadyRates(t)
	memo := experiments.CacheSnapshot()
	t.memoHits = memo.Hits - memo0.Hits
	t.memoMisses = memo.Misses - memo0.Misses
	if t.memoHits != uint64(t.memoCells) {
		// Some simulation ran that the tally left out, or the reverse.
		fmt.Fprintf(os.Stderr, "perfbench: %d memo hits, %d cells left out of the simulated work\n",
			t.memoHits, t.memoCells)
	}
	for i := 0; i < serviceDigestOps && i < s.next; i++ {
		if h, ok := s.hashes[i]; ok {
			t.digests = append(t.digests, h)
		}
	}
	return t
}

// steadyWindow is the slice of a service run over which throughput is
// counted; the run reports the median slice.
const steadyWindow = time.Second

// steadyRates sets a service run's throughput from the median of its
// whole one-second windows, and its median job latency.
func steadyRates(t *tally) {
	n := int(t.wall / steadyWindow)
	if n == 0 {
		return
	}
	jobs := make([]float64, n)
	ticks := make([]float64, n)
	for k, at := range t.doneAt {
		if w := int(at / steadyWindow); w < n {
			jobs[w]++
			ticks[w] += t.opTicks[k]
		}
	}
	t.opsPerS = median(jobs) / steadyWindow.Seconds()
	t.simTicksPerS = median(ticks) / steadyWindow.Seconds()
	if p50, _, err := percentile(t.latMS, 0.5); err == nil {
		t.p50MS = p50
	}
}

// op submits one job, waits for its terminal event, fetches its result
// and checks it.
func (s *service) op(i int, j job, t *tally) error {
	req := j.req
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	t.submissions++
	t0 := time.Now()
	var st server.JobStatus
	code, err := s.call(http.MethodPost, "/v1/jobs", body, &st)
	if err != nil {
		return err
	}
	t.admitMS = append(t.admitMS, msSince(t0))
	switch code {
	case http.StatusTooManyRequests:
		t.shed++
		return fmt.Errorf("shed (429)")
	case http.StatusOK, http.StatusAccepted:
	default:
		return fmt.Errorf("submit: HTTP %d", code)
	}
	if st.Deduped && st.State == server.StateDone {
		t.resultHits++
	}
	if err := s.awaitTerminal(st.ID); err != nil {
		return err
	}
	t1 := time.Now()
	var raw json.RawMessage
	if code, err := s.call(http.MethodGet, "/v1/results/"+st.Key, nil, &raw); err != nil {
		return err
	} else if code != http.StatusOK {
		return fmt.Errorf("result: HTTP %d", code)
	}
	t.fetchMS = append(t.fetchMS, msSince(t1))
	lat := msSince(t0)

	var res server.JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("decode result: %v", err)
	}
	if err := checkJob(req, &res); err != nil {
		return err
	}
	h := sha256.Sum256(raw)
	s.mu.Lock()
	prev, seen := s.first[st.Key]
	if !seen {
		s.first[st.Key] = h
	}
	s.hashes[i] = h
	s.mu.Unlock()
	if seen && prev != h {
		return fmt.Errorf("key %s: result bytes differ from its first fetch", st.Key)
	}
	ticks := 0.0
	if !st.Deduped {
		// A fresh job simulated: count the work of every cell that ran.
		for _, r := range res.Results {
			if j.memoServed[r.Workload+"/"+r.Policy] {
				t.memoCells++
				continue
			}
			ticks += r.Cycles
			t.instrs += float64(r.Instructions)
			t.addResult(r)
		}
	}
	t.latMS = append(t.latMS, lat)
	t.doneAt = append(t.doneAt, time.Since(s.began))
	t.opTicks = append(t.opTicks, ticks)
	if s.traced && !st.Deduped {
		return s.jobTimings(st.ID, req.Trace, t)
	}
	return nil
}

// checkJob applies the result invariants to every simulation of a job
// and checks the job returned what it asked for.
func checkJob(req server.JobRequest, res *server.JobResult) error {
	want := 1
	if req.Kind == server.KindCompare {
		want = len(req.Workloads) * len(req.Policies)
	}
	if len(res.Results) != want {
		return fmt.Errorf("%d results, want %d", len(res.Results), want)
	}
	for _, r := range res.Results {
		if err := checkResult(r, *req.Detailed); err != nil {
			return fmt.Errorf("%s/%s: %v", r.Workload, r.Policy, err)
		}
	}
	if req.IntervalNS > 0 && (len(res.Series) != want || len(res.Series[0].Series) == 0) {
		return fmt.Errorf("observed job returned %d series, want %d non-empty", len(res.Series), want)
	}
	return nil
}

// awaitTerminal follows the job's event stream until its done or failed
// event.
func (s *service) awaitTerminal(id string) error {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		switch strings.TrimPrefix(sc.Text(), "event: ") {
		case server.EventDone:
			io.Copy(io.Discard, resp.Body) // the server ends the stream; reuse the connection
			return nil
		case server.EventFailed:
			return fmt.Errorf("job %s failed", id)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events for %s ended without a terminal event", id)
}

// jobTimings reads a finished fresh job's queue wait and run time from
// its status timestamps and, for a traced job, its scheduler waits from
// its own trace.
func (s *service) jobTimings(id string, traced bool, t *tally) error {
	var st server.JobStatus
	if _, err := s.call(http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return err
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		return fmt.Errorf("job %s: finished status lacks timestamps", id)
	}
	t.queueMS = append(t.queueMS, float64(st.StartedAt.Sub(st.QueuedAt).Nanoseconds())/1e6)
	t.runMS = append(t.runMS, float64(st.FinishedAt.Sub(*st.StartedAt).Nanoseconds())/1e6)
	if !traced {
		return nil
	}

	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			ID   string  `json:"id"`
		} `json:"traceEvents"`
	}
	if _, err := s.call(http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &doc); err != nil {
		return err
	}
	begin := map[string]float64{}
	for _, e := range doc.TraceEvents {
		if e.Name != "sched-wait" {
			continue
		}
		switch e.Ph {
		case "b":
			begin[e.ID] = e.Ts
		case "e":
			t.schedMS = append(t.schedMS, (e.Ts-begin[e.ID])/1000)
		}
	}
	return nil
}

// call sends one request and decodes a JSON response body into out.
func (s *service) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(b, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decode: %v", method, path, err)
	}
	return resp.StatusCode, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
