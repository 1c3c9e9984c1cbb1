package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"mellow/internal/experiments"
	"mellow/internal/joblog"
)

// scenarioBody is a small two-cell scenario document wrapped in a job
// request; the tight run lengths keep every test here under a second.
const scenarioBody = `{"kind":"scenario","scenario":{
	"name":"srv-test",
	"workloads":[{"name":"gups"}],
	"policies":["Norm","BE-Mellow+SC"],
	"overrides":{"seed":7,"llc_bytes":262144,"warmup_instructions":20000,"detailed_instructions":50000}
}}`

// TestScenarioSubmitPollFetch: a scenario job runs the document's
// matrix through the ordinary job pipeline — 202 on admit, a result
// document with one cell per (workload, policy) pair, content
// addressing by key, and a byte-for-byte identical resubmit answered
// from the cache.
func TestScenarioSubmitPollFetch(t *testing.T) {
	experiments.ResetCache()
	_, ts := newTestServer(t, Config{Workers: 2, BaseConfig: tinyBase(31)})

	st, code := postJob(t, ts, scenarioBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if st.ID == "" || len(st.Key) != 64 {
		t.Fatalf("bad status: %+v", st)
	}
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	sr := final.Result.Scenario
	if sr == nil {
		t.Fatal("scenario job finished without a scenario result")
	}
	if sr.Scenario != "srv-test" || len(sr.Key) != 64 {
		t.Fatalf("scenario result header: name %q key %q", sr.Scenario, sr.Key)
	}
	if len(sr.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(sr.Cells))
	}
	for i, want := range []string{"Norm", "BE-Mellow+SC"} {
		if sr.Cells[i].Workload != "gups" || sr.Cells[i].Policy != want {
			t.Errorf("cell %d = %s/%s, want gups/%s", i, sr.Cells[i].Workload, sr.Cells[i].Policy, want)
		}
	}
	if len(final.Result.Results) != 0 {
		t.Errorf("scenario job carries %d flat results, want the scenario document only", len(final.Result.Results))
	}

	bytes1 := getResultBytes(t, ts, st.Key)

	// The identical document again: same content address, answered from
	// the cache without re-running.
	st2, code := postJob(t, ts, scenarioBody)
	if code != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200", code)
	}
	if !st2.Deduped || st2.Key != st.Key || st2.State != StateDone {
		t.Fatalf("resubmit status: %+v", st2)
	}
	if got := getResultBytes(t, ts, st2.Key); !bytes.Equal(got, bytes1) {
		t.Error("resubmitted scenario result bytes differ")
	}
}

// TestScenarioSubmitValidation: admission rejects everything the
// scenario-kind contract forbids — matrix fields on the request, run
// observers, invalid documents, bad overrides, unresolved replay
// paths — and the unknown-kind error lists the full registry.
func TestScenarioSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, BaseConfig: tinyBase(1)})

	doc := `{"name":"t","workloads":[{"name":"gups"}],"policies":["Norm"]}`
	cases := []struct {
		name, body, wantErr string
	}{
		{"missing document", `{"kind":"scenario"}`, "needs a scenario document"},
		{"request workload", fmt.Sprintf(`{"kind":"scenario","workload":"gups","scenario":%s}`, doc), `scenario job does not take \"workload\"`},
		{"request workloads", fmt.Sprintf(`{"kind":"scenario","workloads":["gups"],"scenario":%s}`, doc), `scenario job does not take \"workloads\"`},
		{"request policy", fmt.Sprintf(`{"kind":"scenario","policy":"Norm","scenario":%s}`, doc), `scenario job does not take \"policy\"`},
		{"request policies", fmt.Sprintf(`{"kind":"scenario","policies":["Norm"],"scenario":%s}`, doc), `scenario job does not take \"policies\"`},
		{"request experiment", fmt.Sprintf(`{"kind":"scenario","experiment":"fig6","scenario":%s}`, doc), `scenario job does not take \"experiment\"`},
		{"interval_ns", fmt.Sprintf(`{"kind":"scenario","interval_ns":500000,"scenario":%s}`, doc), "does not support interval_ns"},
		{"trace", fmt.Sprintf(`{"kind":"scenario","trace":true,"scenario":%s}`, doc), "does not support trace"},
		{"unknown workload", `{"kind":"scenario","scenario":{"name":"t","workloads":[{"name":"nope"}],"policies":["Norm"]}}`, "nope"},
		{"bad policy", `{"kind":"scenario","scenario":{"name":"t","workloads":[{"name":"gups"}],"policies":["Turbo"]}}`, "Turbo"},
		{"bad override", `{"kind":"scenario","scenario":{"name":"t","workloads":[{"name":"gups"}],"policies":["Norm"],"overrides":{"banks":7}}}`, "bank count 7"},
		{"replay path not inlined", `{"kind":"scenario","scenario":{"name":"t","workloads":[{"name":"r","spec":{"kind":"replay","path":"x.trace"}}],"policies":["Norm"]}}`, "not resolved"},
		{"layout over 4 GB", `{"kind":"scenario","scenario":{"name":"t","workloads":[{"name":"big","spec":{"kind":"hotonly","gap_mean":2,"hot_bytes":8589934592,"hot_theta":0.8}}],"policies":["Norm"]}}`, "needs 8320 MB"},
		{"unknown kind", `{"kind":"frobnicate"}`, "want sim, compare, experiment or scenario"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw := new(bytes.Buffer)
		raw.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		if !strings.Contains(raw.String(), tc.wantErr) {
			t.Errorf("%s: body %q does not mention %q", tc.name, raw.String(), tc.wantErr)
		}
	}
}

// TestScenarioBatch: scenario jobs ride the batch endpoint alongside
// other kinds, and duplicate documents within a batch join one job.
func TestScenarioBatch(t *testing.T) {
	experiments.ResetCache()
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, BaseConfig: tinyBase(33)})

	scen := `{"kind":"scenario","scenario":{"name":"b","workloads":[{"name":"gups"}],"policies":["Norm"],"overrides":{"warmup_instructions":10000,"detailed_instructions":30000}}}`
	body := fmt.Sprintf(`{"jobs":[%s,{"kind":"sim","workload":"stream","policy":"Norm"},%s]}`, scen, scen)
	br, code, raw := postBatch(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("batch = %d (%s), want 202", code, raw)
	}
	if len(br.Jobs) != 3 {
		t.Fatalf("batch returned %d statuses, want 3", len(br.Jobs))
	}
	if br.Jobs[2].ID != br.Jobs[0].ID || !br.Jobs[2].Deduped {
		t.Errorf("duplicate scenario entry got id %s deduped=%v, want join of %s",
			br.Jobs[2].ID, br.Jobs[2].Deduped, br.Jobs[0].ID)
	}
	for _, st := range br.Jobs[:2] {
		if fin := waitDone(t, ts, st.ID); fin.State != StateDone {
			t.Fatalf("job %s failed: %s", st.ID, fin.Error)
		}
	}
	fin := waitDone(t, ts, br.Jobs[0].ID)
	if fin.Result.Scenario == nil || len(fin.Result.Scenario.Cells) != 1 {
		t.Fatalf("batched scenario result: %+v", fin.Result)
	}
}

// TestScenarioJobLogReplay: a scenario job admitted to the write-ahead
// log before a crash replays on restart under its original id and
// reproduces the undisturbed run's result bytes — the document (with
// any replay traces inlined) travels whole through the log.
func TestScenarioJobLogReplay(t *testing.T) {
	base := tinyBase(35)

	// Reference run on an undisturbed server.
	experiments.ResetCache()
	_, refTS := newTestServer(t, Config{Workers: 2, BaseConfig: base})
	st, code := postJob(t, refTS, scenarioBody)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit = %d", code)
	}
	if fin := waitDone(t, refTS, st.ID); fin.State != StateDone {
		t.Fatalf("reference job failed: %s", fin.Error)
	}
	wantBytes := getResultBytes(t, refTS, st.Key)

	// Victim: admit, then crash before the job can finish.
	path := filepath.Join(t.TempDir(), "jobs.wal")
	l1, err := joblog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Config{Workers: 1, QueueDepth: 8, BaseConfig: base, JobLog: l1})
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) })
	s1.exec = func(ctx context.Context, js *jobState) (*JobResult, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, fmt.Errorf("victim never finishes")
	}
	j1, code := postJob(t, ts1, scenarioBody)
	if code != http.StatusAccepted {
		t.Fatalf("victim submit = %d", code)
	}
	if j1.Key != st.Key {
		t.Fatalf("victim key %s differs from reference %s", j1.Key, st.Key)
	}
	crashServer(t, l1)

	// Survivor: replay from the log and run for real.
	experiments.ResetCache()
	l2, err := joblog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Workers: 2, QueueDepth: 8, BaseConfig: base, JobLog: l2})
	n, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Restore replayed %d jobs, want 1", n)
	}
	if fin := waitDone(t, ts2, j1.ID); fin.State != StateDone {
		t.Fatalf("replayed scenario job: state %s (%s)", fin.State, fin.Error)
	}
	if got := getResultBytes(t, ts2, j1.Key); !bytes.Equal(got, wantBytes) {
		t.Errorf("replayed scenario result differs from the undisturbed run's bytes (%d vs %d bytes)",
			len(got), len(wantBytes))
	}
}
