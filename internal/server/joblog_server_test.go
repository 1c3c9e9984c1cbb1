package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mellow/internal/experiments"
	"mellow/internal/joblog"
	"mellow/internal/policy"
	"mellow/internal/trace"
)

func postBatch(t *testing.T, ts *httptest.Server, body string) (BatchResponse, int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	}
	return br, resp.StatusCode, string(raw)
}

// TestBatchSubmit checks the happy path: statuses align with request
// order, duplicates within the batch join the first instance, and a
// repeat of the whole batch after completion is answered 200 from the
// caches.
func TestBatchSubmit(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, BaseConfig: tinyBase(501)})
	body := `{"jobs":[
		{"kind":"sim","workload":"stream","policy":"Norm"},
		{"kind":"sim","workload":"gups","policy":"Norm"},
		{"kind":"sim","workload":"stream","policy":"Norm"}
	]}`
	br, code, _ := postBatch(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("batch = %d, want 202", code)
	}
	if len(br.Jobs) != 3 {
		t.Fatalf("batch returned %d statuses, want 3", len(br.Jobs))
	}
	if br.Jobs[0].ID == br.Jobs[1].ID {
		t.Error("distinct jobs share an id")
	}
	if br.Jobs[2].ID != br.Jobs[0].ID || !br.Jobs[2].Deduped {
		t.Errorf("duplicate entry got id %s deduped=%v, want join of %s",
			br.Jobs[2].ID, br.Jobs[2].Deduped, br.Jobs[0].ID)
	}
	for _, st := range br.Jobs[:2] {
		if fin := waitDone(t, ts, st.ID); fin.State != StateDone {
			t.Fatalf("job %s failed: %s", st.ID, fin.Error)
		}
	}
	br2, code, _ := postBatch(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("repeat batch = %d, want 200 (all answered from cache)", code)
	}
	for i, st := range br2.Jobs {
		if !st.Deduped || st.State != StateDone {
			t.Errorf("repeat jobs[%d]: deduped=%v state=%s", i, st.Deduped, st.State)
		}
	}
}

// TestBatchValidation: one bad entry rejects the whole batch with the
// entry's index in the error; an empty batch is a 400 too.
func TestBatchValidation(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, BaseConfig: tinyBase(503)})
	_, code, raw := postBatch(t, ts, `{"jobs":[
		{"kind":"sim","workload":"stream","policy":"Norm"},
		{"kind":"sim","workload":"no-such-workload","policy":"Norm"}
	]}`)
	if code != http.StatusBadRequest || !strings.Contains(raw, "jobs[1]") {
		t.Fatalf("bad entry: code %d body %s, want 400 naming jobs[1]", code, raw)
	}
	if _, code, _ := postBatch(t, ts, `{"jobs":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", code)
	}
}

// TestBatchShedAllOrNothing: a batch needing more queue slots than are
// free is rejected whole — no partial admission, nothing enqueued.
func TestBatchShedAllOrNothing(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, BaseConfig: tinyBase(507)})
	gate := make(chan struct{})
	defer close(gate)
	s.exec = func(ctx context.Context, js *jobState) (*JobResult, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return &JobResult{Key: js.key, Kind: js.kind}, nil
	}
	first, code := postJob(t, ts, `{"kind":"sim","workload":"stream","policy":"Norm","seed":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("prime submit = %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, ok := s.Job(first.ID); ok && st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prime job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue has 2 free slots; the batch needs 3.
	_, code, raw := postBatch(t, ts, `{"jobs":[
		{"kind":"sim","workload":"stream","policy":"Norm","seed":2},
		{"kind":"sim","workload":"stream","policy":"Norm","seed":3},
		{"kind":"sim","workload":"stream","policy":"Norm","seed":4}
	]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("oversized batch = %d body %s, want 429", code, raw)
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 1 {
		t.Errorf("%d jobs registered after rejected batch, want 1 (no partial admission)", jobs)
	}
	// A batch that fits the free slots is accepted.
	br, code, _ := postBatch(t, ts, `{"jobs":[
		{"kind":"sim","workload":"stream","policy":"Norm","seed":2},
		{"kind":"sim","workload":"stream","policy":"Norm","seed":3}
	]}`)
	if code != http.StatusAccepted || len(br.Jobs) != 2 {
		t.Fatalf("fitting batch = %d with %d statuses, want 202 with 2", code, len(br.Jobs))
	}
}

// crashServer simulates a kill -9 against a joblog-backed server: the
// log handle is closed (no further records can land) while jobs are
// still admitted-but-unfinished. The server itself is drained by the
// usual test cleanup afterwards; its late finish records hit the closed
// log and are dropped, exactly like a dead process's would be.
func crashServer(t *testing.T, l *joblog.Log) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJobLogRestoreAfterCrash is the crash-recovery path end to end:
// jobs admitted (and fsynced) before a crash are replayed on restart
// under their original ids, run to completion, and produce results
// byte-identical to an undisturbed run's. New submissions after the
// restore mint ids past everything the dead process handed out.
func TestJobLogRestoreAfterCrash(t *testing.T) {
	base := tinyBase(521)
	body1 := `{"kind":"sim","workload":"stream","policy":"BE-Mellow+SC","interval_ns":40000}`
	body2 := `{"kind":"sim","workload":"gups","policy":"Norm"}`

	// Reference run on an undisturbed server: the bytes replay must hit.
	ref, refTS := newTestServer(t, Config{Workers: 2, BaseConfig: base})
	_ = ref
	st, code := postJob(t, refTS, body1)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit = %d", code)
	}
	if fin := waitDone(t, refTS, st.ID); fin.State != StateDone {
		t.Fatalf("reference job failed: %s", fin.Error)
	}
	wantBytes := getResultBytes(t, refTS, st.Key)

	// Victim server: block execution so the crash lands while both jobs
	// are admitted but unfinished.
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	l1, err := joblog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Workers: 1, QueueDepth: 8, BaseConfig: base, JobLog: l1})
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) }) // runs before s1's Shutdown cleanup
	s1.exec = func(ctx context.Context, js *jobState) (*JobResult, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, fmt.Errorf("victim never finishes")
	}
	j1, code := postJob(t, ts1, body1)
	if code != http.StatusAccepted {
		t.Fatalf("victim submit 1 = %d", code)
	}
	j2, code := postJob(t, ts1, body2)
	if code != http.StatusAccepted {
		t.Fatalf("victim submit 2 = %d", code)
	}
	crashServer(t, l1)

	// Survivor: reopen the same log, restore, run for real. The memo
	// cache is cleared so the replayed result is recomputed, not
	// remembered.
	experiments.ResetCache()
	l2, err := joblog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := l2.Stats(); st.Replayed == 0 || st.Pending != 2 {
		t.Fatalf("reopened log: %+v, want 2 pending jobs", st)
	}
	s2, ts2 := newTestServer(t, Config{Workers: 2, QueueDepth: 8, BaseConfig: base, JobLog: l2})
	n, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Restore replayed %d jobs, want 2", n)
	}

	// Replayed jobs keep their pre-crash ids.
	for _, id := range []string{j1.ID, j2.ID} {
		if fin := waitDone(t, ts2, id); fin.State != StateDone {
			t.Fatalf("replayed job %s: state %s (%s)", id, fin.State, fin.Error)
		}
	}
	if got := getResultBytes(t, ts2, j1.Key); !bytes.Equal(got, wantBytes) {
		t.Errorf("replayed result differs from the undisturbed run's bytes (%d vs %d bytes)",
			len(got), len(wantBytes))
	}

	// Fresh ids start past the dead process's counter.
	st3, code := postJob(t, ts2, `{"kind":"sim","workload":"stream","policy":"Norm","seed":9}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-restore submit = %d", code)
	}
	if st3.ID == j1.ID || st3.ID == j2.ID {
		t.Errorf("post-restore job reused id %s", st3.ID)
	}
	if st3.ID != "job-000003" {
		t.Errorf("post-restore id = %s, want job-000003 (seeded past the replayed max)", st3.ID)
	}
}

func getResultBytes(t *testing.T, ts *httptest.Server, key string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch = %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJobLogLifecycleRecords: a finished job leaves admit, start and
// finish records carrying the same id and content address, and a clean
// drain leaves nothing pending, so compaction empties the log.
func TestJobLogLifecycleRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	l, err := joblog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, BaseConfig: tinyBase(523), JobLog: l, Logger: quietLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, code := postJob(t, ts, `{"kind":"sim","workload":"stream","policy":"Norm"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, ts, st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: compaction after a clean drain leaves an empty log.
	l2, err := joblog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Replayed != 0 || st.Pending != 0 {
		t.Errorf("compacted log: %+v, want empty", st)
	}
}

// TestJobLogShedNotRecorded: a shed submission writes no admit record,
// so a replay cannot resurrect work the client was told to retry.
func TestJobLogShedNotRecorded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	l, err := joblog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, BaseConfig: tinyBase(541), JobLog: l})
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	s.exec = func(ctx context.Context, js *jobState) (*JobResult, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return &JobResult{Key: js.key, Kind: js.kind}, nil
	}
	admitted := 0
	for seed := 1; seed <= 5; seed++ {
		_, code := postJob(t, ts, fmt.Sprintf(
			`{"kind":"sim","workload":"stream","policy":"Norm","seed":%d}`, seed))
		if code == http.StatusAccepted {
			admitted++
		}
	}
	if admitted >= 5 {
		t.Fatal("nothing shed; test needs a full queue")
	}
	// Crash and replay: only the admitted jobs are pending — the shed
	// submissions left no trace for replay to resurrect.
	crashServer(t, l)
	l2, err := joblog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Stats().Pending; got != admitted {
		t.Errorf("replay finds %d pending jobs, want %d (shed submissions must not be recorded)", got, admitted)
	}
}

// TestPanickingSimulationFailsJob: a simulation that panics fails its
// job with the contained error and a joblog fail record, instead of
// killing the process, and counts in mellowd_sim_panics_total; the
// server keeps serving.
func TestPanickingSimulationFailsJob(t *testing.T) {
	experiments.ResetCache()
	path := filepath.Join(t.TempDir(), "jobs.wal")
	l, err := joblog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, BaseConfig: tinyBase(661), JobLog: l})
	// The first job runs its cell with a generator that panics, through
	// the same matrix runner every simulation goes through.
	s.exec = func(ctx context.Context, js *jobState) (*JobResult, error) {
		w, err := trace.ByName(js.run.canon.Workloads[0])
		if err != nil {
			return nil, err
		}
		w.New = func(uint64) trace.Generator { panic("poisoned generator") }
		spec, err := policy.Parse(js.run.canon.Policies[0])
		if err != nil {
			return nil, err
		}
		_, err = experiments.RunCells(ctx, []experiments.Cell{{Cfg: js.run.canon.Config, Spec: spec, Workload: w}}, experiments.Hooks{})
		return nil, err
	}

	st, code, err := s.Submit(JobRequest{Kind: KindSim, Workload: "gups", Policy: "Norm"})
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("submit = %d, %v", code, err)
	}
	fin := waitDone(t, ts, st.ID)
	if want := "experiments: simulation panicked: poisoned generator"; fin.State != StateFailed || fin.Error != want {
		t.Fatalf("job = %s (%q), want failed with %q", fin.State, fin.Error, want)
	}
	if n, ok := scrapeCounter(t, ts.URL, "mellowd_sim_panics_total"); ok && n != 1 {
		t.Errorf("mellowd_sim_panics_total = %d after one contained panic, want 1", n)
	}

	s.exec = runJob
	st2, code, err := s.Submit(JobRequest{Kind: KindSim, Workload: "gups", Policy: "Norm"})
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("resubmit = %d, %v", code, err)
	}
	if fin := waitDone(t, ts, st2.ID); fin.State != StateDone {
		t.Fatalf("healthy job after the panic = %s (%s)", fin.State, fin.Error)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := joblog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var failed bool
	for _, r := range l2.Records() {
		failed = failed || (r.Type == joblog.TypeFail && r.ID == st.ID && r.Error == fin.Error)
	}
	if !failed {
		t.Errorf("job log has no fail record for %s: %+v", st.ID, l2.Records())
	}
	if p := joblog.Pending(l2.Records()); len(p) != 0 {
		t.Errorf("pending after the panic: %+v, want none (replay must not re-run it)", p)
	}
}
