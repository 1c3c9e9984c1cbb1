package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mellow/internal/config"
	"mellow/internal/experiments"
)

// tinyBase keeps API tests fast: ~50k instructions per simulation.
func tinyBase(seed uint64) *config.Config {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 0
	cfg.Run.DetailedInstructions = 50_000
	cfg.Run.Seed = seed
	return &cfg
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
	}
	return st, resp.StatusCode
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func TestSubmitPollFetch(t *testing.T) {
	experiments.ResetCache()
	_, ts := newTestServer(t, Config{Workers: 2, BaseConfig: tinyBase(11)})

	st, code := postJob(t, ts, `{"kind":"sim","workload":"stream","policy":"BE-Mellow+SC"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d, want 202", code)
	}
	if st.ID == "" || len(st.Key) != 64 {
		t.Fatalf("bad status: %+v", st)
	}

	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	if len(final.Result.Results) != 1 || final.Result.Results[0].IPC <= 0 {
		t.Fatalf("bad result: %+v", final.Result)
	}
	if final.Result.Results[0].Policy != "BE-Mellow+SC" {
		t.Errorf("policy = %q", final.Result.Results[0].Policy)
	}

	// The same payload is addressable by key.
	resp, err := http.Get(ts.URL + "/v1/results/" + st.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch = %d", resp.StatusCode)
	}
	var jr JobResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.Key != st.Key || len(jr.Results) != 1 {
		t.Fatalf("bad content-addressed result: %+v", jr)
	}

	// Unknown ids and keys 404.
	if r, _ := http.Get(ts.URL + "/v1/jobs/nope"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", r.StatusCode)
	}
	if r, _ := http.Get(ts.URL + "/v1/results/feedbeef"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key = %d, want 404", r.StatusCode)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, BaseConfig: tinyBase(1)})
	for _, body := range []string{
		`{"kind":"sim","policy":"Norm"}`,                                  // no workload
		`{"kind":"sim","workload":"stream"}`,                              // no policy
		`{"kind":"sim","workload":"nope","policy":"Norm"}`,                // bad workload
		`{"kind":"sim","workload":"stream","policy":"Bogus"}`,             // bad policy
		`{"kind":"experiment"}`,                                           // no id
		`{"kind":"experiment","experiment":"fig99"}`,                      // bad id
		`{"kind":"warp"}`,                                                 // bad kind
		`{"kind":"sim","workload":"stream","policy":"Norm","detailed":0}`, // invalid config
		`{nope`, // malformed JSON
	} {
		if _, code := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("body %s: code = %d, want 400", body, code)
		}
	}
}

// TestDedupConcurrent is the singleflight acceptance check: concurrent
// identical submissions trigger exactly one simulation, proven by the
// dedup metric and the memo-cache miss counter.
func TestDedupConcurrent(t *testing.T) {
	experiments.ResetCache()
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 32, BaseConfig: tinyBase(23)})

	// Hold job execution on a gate so every submission lands while the
	// first job is demonstrably still active.
	gate := make(chan struct{})
	realExec := s.exec
	s.exec = func(ctx context.Context, js *jobState) (*JobResult, error) {
		<-gate
		return realExec(ctx, js)
	}

	const clients = 8
	body := `{"kind":"sim","workload":"gups","policy":"Norm","seed":23}`
	var wg sync.WaitGroup
	ids := make([]string, clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, code := postJob(t, ts, body)
			ids[i], codes[i] = st.ID, code
		}()
	}
	wg.Wait()
	close(gate)

	accepted := 0
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusOK:
		default:
			t.Fatalf("client %d: code %d", i, code)
		}
		if ids[i] != ids[0] {
			t.Errorf("client %d joined job %s, client 0 got %s", i, ids[i], ids[0])
		}
	}
	if accepted != 1 {
		t.Errorf("%d submissions enqueued, want exactly 1", accepted)
	}
	if got := s.met.deduped.Value(); got != clients-1 {
		t.Errorf("deduped metric = %d, want %d", got, clients-1)
	}

	final := waitDone(t, ts, ids[0])
	if final.State != StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	if st := experiments.CacheSnapshot(); st.Misses != 1 {
		t.Errorf("simulations executed = %d, want exactly 1", st.Misses)
	}

	// A post-completion identical submission is a result-cache hit.
	st, code := postJob(t, ts, body)
	if code != http.StatusOK || !st.Deduped || st.State != StateDone || st.Result == nil {
		t.Errorf("cached resubmit: code=%d status=%+v", code, st)
	}
	if s.met.resultHit.Value() == 0 {
		t.Error("result cache hit not counted")
	}
}

// TestShedsUnderSaturation fills the pool and queue with gated jobs and
// checks the overflow submission is shed with 429 + Retry-After.
func TestShedsUnderSaturation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, BaseConfig: tinyBase(31)})
	gate := make(chan struct{})
	s.exec = func(ctx context.Context, js *jobState) (*JobResult, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &JobResult{Key: js.key, Kind: js.canon.Kind}, nil
	}

	// Distinct seeds make distinct keys: 1 running + 2 queued fill the
	// service; the 4th must shed. Submissions are sequential, so the
	// worker has picked up the first job before the queue fills.
	submit := func(seed int) (JobStatus, int) {
		return postJob(t, ts, fmt.Sprintf(
			`{"kind":"sim","workload":"stream","policy":"Norm","seed":%d}`, seed))
	}
	first, code := submit(1)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	// Wait until the worker dequeues job 1, freeing a queue slot race.
	waitState := func(id, want string) {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if st, ok := s.Job(id); ok && st.State == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("job %s never reached %s", id, want)
	}
	waitState(first.ID, StateRunning)

	for seed := 2; seed <= 3; seed++ {
		if _, code := submit(seed); code != http.StatusAccepted {
			t.Fatalf("seed %d: code %d, want 202", seed, code)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"sim","workload":"stream","policy":"Norm","seed":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.met.shed.Value() != 1 {
		t.Errorf("shed metric = %d, want 1", s.met.shed.Value())
	}
	close(gate)
}

// TestGracefulDrain verifies Shutdown finishes queued and in-flight
// jobs before returning, and that draining servers refuse new work.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, BaseConfig: tinyBase(41)})
	started := make(chan struct{}, 8)
	gate := make(chan struct{})
	s.exec = func(ctx context.Context, js *jobState) (*JobResult, error) {
		started <- struct{}{}
		<-gate
		return &JobResult{Key: js.key, Kind: js.canon.Kind}, nil
	}

	var ids []string
	for seed := 1; seed <= 3; seed++ {
		st, code := postJob(t, ts, fmt.Sprintf(
			`{"kind":"sim","workload":"gups","policy":"Norm","seed":%d}`, seed))
		if code != http.StatusAccepted {
			t.Fatalf("seed %d: code %d", seed, code)
		}
		ids = append(ids, st.ID)
	}
	<-started // first job is in flight

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Shutdown(ctx)
	}()

	// While draining, new submissions are refused.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, code := postJob(t, ts, `{"kind":"sim","workload":"gups","policy":"Norm","seed":99}`)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server kept accepting jobs")
		}
		time.Sleep(time.Millisecond)
	}

	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned before jobs finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate) // release all jobs
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, ok := s.Job(id)
		if !ok || st.State != StateDone {
			t.Errorf("job %s state after drain: %+v", id, st)
		}
	}
}

// TestHardStopCancelsJobs verifies the drain deadline: a job that will
// not finish is cancelled through its context and Shutdown returns the
// deadline error.
func TestHardStopCancelsJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, BaseConfig: tinyBase(43)})
	s.exec = func(ctx context.Context, js *jobState) (*JobResult, error) {
		<-ctx.Done() // run "forever" until cancelled
		return nil, ctx.Err()
	}
	st, code := postJob(t, ts, `{"kind":"sim","workload":"stream","policy":"Norm"}`)
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	got, _ := s.Job(st.ID)
	if got.State != StateFailed {
		t.Errorf("cancelled job state = %s, want failed", got.State)
	}
}

// TestDeterministicResults is the byte-identity acceptance check: two
// fresh servers given the same submission serve byte-identical result
// payloads — series and per-run metrics included — for the same key,
// even though the 2×2 matrix fans out in parallel and its cells finish
// in arbitrary order. The content address and result bytes of a sim and
// a compare job are also pinned against testdata/<name>.golden (first
// line the key, then the payload); regenerate with -update.
func TestDeterministicResults(t *testing.T) {
	jobs := []struct {
		name, body string
		cells      int
		series     bool
	}{
		{"sim_job", `{"kind":"sim","workload":"gups","policy":"BE-Mellow+SC+WQ","seed":57}`, 1, false},
		{"compare_job", `{"kind":"compare","workloads":["gups","stream"],"policies":["Norm","BE-Mellow+SC"],"interval_ns":2000,"metrics":true,"seed":57}`, 4, true},
	}
	for _, j := range jobs {
		fetch := func() (string, []byte) {
			experiments.ResetCache() // force a real re-simulation
			_, ts := newTestServer(t, Config{Workers: 2, SimBudget: 4, BaseConfig: tinyBase(57)})
			st, code := postJob(t, ts, j.body)
			if code != http.StatusAccepted {
				t.Fatalf("%s: code = %d", j.name, code)
			}
			if fin := waitDone(t, ts, st.ID); fin.State != StateDone {
				t.Fatalf("%s: state = %s (%s)", j.name, fin.State, fin.Error)
			}
			resp, err := http.Get(ts.URL + "/v1/results/" + st.Key)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			var jr JobResult
			if err := json.Unmarshal(b, &jr); err != nil {
				t.Fatal(err)
			}
			wantSeries := 0
			if j.series {
				wantSeries = j.cells
			}
			if len(jr.Results) != j.cells || len(jr.Series) != wantSeries {
				t.Fatalf("%s: payload has %d results, %d series, want %d and %d",
					j.name, len(jr.Results), len(jr.Series), j.cells, wantSeries)
			}
			return st.Key, b
		}
		k1, b1 := fetch()
		k2, b2 := fetch()
		if k1 != k2 {
			t.Fatalf("%s: equal submissions got different keys: %s vs %s", j.name, k1, k2)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: results for key %s differ:\n%s\nvs\n%s", j.name, k1, b1, b2)
		}
		got := append([]byte(k1+"\n"), b1...)
		path := filepath.Join("testdata", j.name+".golden")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: key and result bytes drifted from %s:\ngot:\n%s\nwant:\n%s", j.name, path, got, want)
		}
	}
}

// TestExperimentJob runs a paper artifact end to end through the API.
func TestExperimentJob(t *testing.T) {
	experiments.ResetCache()
	_, ts := newTestServer(t, Config{Workers: 2, BaseConfig: tinyBase(61)})
	st, code := postJob(t, ts, `{"kind":"experiment","experiment":"fig3","workloads":["stream"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("code = %d", code)
	}
	fin := waitDone(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s)", fin.State, fin.Error)
	}
	rep := fin.Result.Report
	if rep == nil || rep.ID != "fig3" || !strings.Contains(rep.Output, "stream") {
		t.Fatalf("bad report: %+v", rep)
	}
}

// TestKeyNormalization: spelled-out defaults and implicit defaults hash
// to the same content address.
func TestKeyNormalization(t *testing.T) {
	base := tinyBase(3)
	_, k1, err := normalize(JobRequest{Kind: KindSim, Workload: "stream", Policy: "Norm"}, *base)
	if err != nil {
		t.Fatal(err)
	}
	seed := base.Run.Seed
	_, k2, err := normalize(JobRequest{Workload: "stream", Policy: "Norm", Seed: &seed}, *base)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equivalent requests hash differently: %s vs %s", k1, k2)
	}
	other := uint64(4)
	_, k3, err := normalize(JobRequest{Workload: "stream", Policy: "Norm", Seed: &other}, *base)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("different seed, same key")
	}
	// Timeout is an execution knob, not an identity field.
	_, k4, err := normalize(JobRequest{Workload: "stream", Policy: "Norm", TimeoutSeconds: 5}, *base)
	if err != nil {
		t.Fatal(err)
	}
	if k4 != k1 {
		t.Error("timeout changed the content address")
	}
	// The observation interval IS identity: an observed result carries
	// the epoch series, so it must not answer an unobserved request.
	_, k5, err := normalize(JobRequest{Workload: "stream", Policy: "Norm", IntervalNS: 500_000}, *base)
	if err != nil {
		t.Fatal(err)
	}
	if k5 == k1 {
		t.Error("interval_ns did not change the content address")
	}
	// The wear-leveling backend changes the simulated machine, so it is
	// identity; spelling out the default is not.
	c6, k6, err := normalize(JobRequest{Workload: "stream", Policy: "Norm", Leveler: "wolfram"}, *base)
	if err != nil {
		t.Fatal(err)
	}
	if c6.Config.Memory.WearLeveler != "wolfram" {
		t.Errorf("leveler not applied: %q", c6.Config.Memory.WearLeveler)
	}
	if k6 == k1 {
		t.Error("leveler did not change the content address")
	}
	_, k7, err := normalize(JobRequest{Workload: "stream", Policy: "Norm", Leveler: "startgap"}, *base)
	if err != nil {
		t.Fatal(err)
	}
	if k7 != k1 {
		t.Error("explicit default leveler changed the content address")
	}
	if _, _, err := normalize(JobRequest{Workload: "stream", Policy: "Norm", Leveler: "bogus"}, *base); err == nil {
		t.Error("unknown leveler accepted")
	}
}

// TestHealthAndMetrics spot-checks the observability endpoints.
func TestHealthAndMetrics(t *testing.T) {
	experiments.ResetCache()
	_, ts := newTestServer(t, Config{Workers: 2, BaseConfig: tinyBase(71)})
	st, code := postJob(t, ts, `{"kind":"sim","workload":"stream","policy":"Norm"}`)
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	waitDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct{ Status string }
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" {
		t.Errorf("health = %q", health.Status)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(b)
	for _, want := range []string{
		"mellowd_jobs_accepted_total 1",
		"mellowd_jobs_completed_total 1",
		"mellowd_simcache_misses_total 1",
		"mellowd_job_duration_seconds_bucket{kind=\"sim\",le=\"+Inf\"} 1",
		"mellowd_job_duration_seconds_count{kind=\"sim\"} 1",
		"mellowd_queue_depth 0",
		"mellowd_build_info{go_version=\"go",
		"mellowd_queue_wait_seconds_count 1",
		"mellowd_jobs_running 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestJobProgressMonotone is the live-progress acceptance check: while
// a long job runs, GET /v1/jobs/{id} reports a strictly increasing
// progress fraction, finishing at exactly 1, and an interval_ns job
// embeds one epoch series per simulation in its result.
func TestJobProgressMonotone(t *testing.T) {
	experiments.ResetCache()
	base := tinyBase(91)
	base.Run.DetailedInstructions = 1_500_000
	_, ts := newTestServer(t, Config{Workers: 1, BaseConfig: base})

	st, code := postJob(t, ts,
		`{"kind":"compare","workload":"GemsFDTD","policies":["Norm","BE-Mellow+SC"],"interval_ns":100000}`)
	if code != http.StatusAccepted {
		t.Fatalf("code = %d", code)
	}

	var observed []float64
	var sawEpoch bool
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		err = json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(observed); n == 0 || cur.Progress != observed[n-1] {
			observed = append(observed, cur.Progress)
		}
		if cur.Epoch != nil {
			sawEpoch = true
		}
		if cur.State == StateDone || cur.State == StateFailed {
			if cur.State != StateDone {
				t.Fatalf("state = %s (%s)", cur.State, cur.Error)
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	for i := 1; i < len(observed); i++ {
		if observed[i] <= observed[i-1] {
			t.Fatalf("progress not strictly increasing: %v", observed)
		}
	}
	if len(observed) < 3 {
		t.Errorf("saw only %d distinct progress values: %v", len(observed), observed)
	}
	if final := observed[len(observed)-1]; final != 1 {
		t.Errorf("final progress = %v, want 1", final)
	}
	if !sawEpoch {
		t.Error("no status carried an epoch sample")
	}

	fin := waitDone(t, ts, st.ID)
	if len(fin.Result.Series) != 2 {
		t.Fatalf("result carries %d series records, want 2", len(fin.Result.Series))
	}
	for _, rec := range fin.Result.Series {
		if rec.Workload != "GemsFDTD" || len(rec.Series) == 0 {
			t.Errorf("bad series record: %s/%s with %d samples", rec.Workload, rec.Policy, len(rec.Series))
		}
	}
}

// TestResultEviction bounds the finished-job cache.
func TestResultEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16, MaxResults: 2, BaseConfig: tinyBase(83)})
	s.exec = func(ctx context.Context, js *jobState) (*JobResult, error) {
		return &JobResult{Key: js.key, Kind: js.canon.Kind}, nil
	}
	var first JobStatus
	for seed := 1; seed <= 4; seed++ {
		st, code := postJob(t, ts, fmt.Sprintf(
			`{"kind":"sim","workload":"gups","policy":"Norm","seed":%d}`, seed))
		if code != http.StatusAccepted {
			t.Fatalf("seed %d: %d", seed, code)
		}
		if seed == 1 {
			first = st
		}
		waitDone(t, ts, st.ID)
	}
	s.mu.Lock()
	finished, jobs := len(s.finished), len(s.jobs)
	s.mu.Unlock()
	if finished > 2 || jobs > 2 {
		t.Errorf("finished=%d jobs=%d, want <= cap 2", finished, jobs)
	}
	if _, ok := s.Result(first.Key); ok {
		t.Error("evicted result still addressable")
	}
	if _, ok := s.Job(first.ID); ok {
		t.Error("evicted job still addressable")
	}
}
