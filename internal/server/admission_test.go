package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mellow/internal/config"
	"mellow/internal/scenario"
)

// admissionDoc is a minimal valid scenario document.
const admissionDoc = `{"name":"t","workloads":[{"name":"gups"}],"policies":["Norm"]}`

// admissionCases maps each request body to exactly one admission
// outcome (runc-bats style): the status code, and for a rejection a
// substring of its one error message. Accepted cases show each kind
// takes every field of its row in kindFields.
var admissionCases = []struct {
	name, body string
	code       int
	msg        string
}{
	// sim: workload, policy.
	{"sim", `{"kind":"sim","workload":"stream","policy":"Norm"}`, http.StatusAccepted, ""},
	{"sim is the default kind", `{"workload":"lbm","policy":"Slow"}`, http.StatusAccepted, ""},
	{"sim no workload", `{"kind":"sim","policy":"Norm"}`, http.StatusBadRequest, "sim job needs a workload"},
	{"sim no policy", `{"kind":"sim","workload":"stream"}`, http.StatusBadRequest, "sim job needs a policy"},
	{"sim bad workload", `{"kind":"sim","workload":"nope","policy":"Norm"}`, http.StatusBadRequest, "nope"},
	{"sim bad policy", `{"kind":"sim","workload":"stream","policy":"Bogus"}`, http.StatusBadRequest, "Bogus"},
	{"sim invalid config", `{"kind":"sim","workload":"stream","policy":"Norm","detailed":0}`, http.StatusBadRequest, "detailed"},
	{"sim 32-way L3", fmt.Sprintf(`{"kind":"sim","workload":"stream","policy":"Norm","config":%s}`, wideLLCConfig()), http.StatusBadRequest, "config: L3 ways 32 exceeds 16"},
	{"sim interval below floor", `{"kind":"sim","workload":"stream","policy":"Norm","interval_ns":999}`, http.StatusBadRequest, "floor"},
	{"sim workloads", `{"kind":"sim","workload":"lbm","policy":"Norm","workloads":["mcf"]}`, http.StatusBadRequest, `sim job does not take "workloads"`},
	{"sim policies", `{"kind":"sim","workload":"lbm","policy":"Norm","policies":["Slow"]}`, http.StatusBadRequest, `sim job does not take "policies"`},
	{"sim experiment", `{"kind":"sim","workload":"lbm","policy":"Norm","experiment":"fig11"}`, http.StatusBadRequest, `sim job does not take "experiment"`},
	{"sim scenario", `{"kind":"sim","workload":"lbm","policy":"Norm","scenario":{"name":"x"}}`, http.StatusBadRequest, `sim job does not take "scenario"`},

	// compare: workload, workloads, policy, policies.
	{"compare", `{"kind":"compare","workload":"gups","workloads":["stream"],"policy":"Norm","policies":["Slow"]}`, http.StatusAccepted, ""},
	{"compare no workload", `{"kind":"compare","policies":["Norm"]}`, http.StatusBadRequest, "compare job needs at least one workload"},
	{"compare bad policy", `{"kind":"compare","workload":"gups","policies":["Turbo"]}`, http.StatusBadRequest, "Turbo"},
	{"compare experiment", `{"kind":"compare","workload":"gups","experiment":"fig11"}`, http.StatusBadRequest, `compare job does not take "experiment"`},
	{"compare scenario", fmt.Sprintf(`{"kind":"compare","workload":"gups","scenario":%s}`, admissionDoc), http.StatusBadRequest, `compare job does not take "scenario"`},

	// experiment: experiment, workloads.
	{"experiment", `{"kind":"experiment","experiment":"fig11","workloads":["stream","gups"]}`, http.StatusAccepted, ""},
	{"experiment no id", `{"kind":"experiment"}`, http.StatusBadRequest, "experiment job needs an experiment id"},
	{"experiment bad id", `{"kind":"experiment","experiment":"fig99"}`, http.StatusBadRequest, "fig99"},
	{"experiment workload", `{"kind":"experiment","experiment":"fig11","workload":"lbm"}`, http.StatusBadRequest, `experiment job does not take "workload"`},
	{"experiment policy", `{"kind":"experiment","experiment":"fig11","policy":"Norm"}`, http.StatusBadRequest, `experiment job does not take "policy"`},
	{"experiment policies", `{"kind":"experiment","experiment":"fig11","policies":["Norm"]}`, http.StatusBadRequest, `experiment job does not take "policies"`},
	{"experiment scenario", fmt.Sprintf(`{"kind":"experiment","experiment":"fig11","scenario":%s}`, admissionDoc), http.StatusBadRequest, `experiment job does not take "scenario"`},

	// scenario: scenario.
	{"scenario", fmt.Sprintf(`{"kind":"scenario","scenario":%s}`, admissionDoc), http.StatusAccepted, ""},
	{"scenario missing document", `{"kind":"scenario"}`, http.StatusBadRequest, "needs a scenario document"},
	{"scenario workload", fmt.Sprintf(`{"kind":"scenario","workload":"gups","scenario":%s}`, admissionDoc), http.StatusBadRequest, `scenario job does not take "workload"`},
	{"scenario workloads", fmt.Sprintf(`{"kind":"scenario","workloads":["gups"],"scenario":%s}`, admissionDoc), http.StatusBadRequest, `scenario job does not take "workloads"`},
	{"scenario policy", fmt.Sprintf(`{"kind":"scenario","policy":"Norm","scenario":%s}`, admissionDoc), http.StatusBadRequest, `scenario job does not take "policy"`},
	{"scenario policies", fmt.Sprintf(`{"kind":"scenario","policies":["Norm"],"scenario":%s}`, admissionDoc), http.StatusBadRequest, `scenario job does not take "policies"`},
	{"scenario experiment", fmt.Sprintf(`{"kind":"scenario","experiment":"fig6","scenario":%s}`, admissionDoc), http.StatusBadRequest, `scenario job does not take "experiment"`},
	{"scenario interval_ns", fmt.Sprintf(`{"kind":"scenario","interval_ns":500000,"scenario":%s}`, admissionDoc), http.StatusBadRequest, "does not support interval_ns"},
	{"scenario trace", fmt.Sprintf(`{"kind":"scenario","trace":true,"scenario":%s}`, admissionDoc), http.StatusBadRequest, "does not support trace"},
	{"scenario unknown workload", `{"kind":"scenario","scenario":{"name":"t","workloads":[{"name":"nope"}],"policies":["Norm"]}}`, http.StatusBadRequest, "nope"},
	{"scenario bad policy", `{"kind":"scenario","scenario":{"name":"t","workloads":[{"name":"gups"}],"policies":["Turbo"]}}`, http.StatusBadRequest, "Turbo"},
	{"scenario bad override", `{"kind":"scenario","scenario":{"name":"t","workloads":[{"name":"gups"}],"policies":["Norm"],"overrides":{"banks":7}}}`, http.StatusBadRequest, "bank count 7"},
	{"scenario replay path not inlined", `{"kind":"scenario","scenario":{"name":"t","workloads":[{"name":"r","spec":{"kind":"replay","path":"x.trace"}}],"policies":["Norm"]}}`, http.StatusBadRequest, "not resolved"},
	{"scenario layout over 4 GB", `{"kind":"scenario","scenario":{"name":"t","workloads":[{"name":"big","spec":{"kind":"hotonly","gap_mean":2,"hot_bytes":8589934592,"hot_theta":0.8}}],"policies":["Norm"]}}`, http.StatusBadRequest, "needs 8320 MB"},

	{"unknown kind", `{"kind":"frobnicate"}`, http.StatusBadRequest, "want sim, compare, experiment or scenario"},
}

// wideLLCConfig is the default configuration as JSON with a 32-way LLC,
// wider than a cache set's packed LRU order holds.
func wideLLCConfig() string {
	cfg := config.Default()
	cfg.Caches.L3.Ways = 32
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// readmeRequests are the README's request examples.
var readmeRequests = []string{
	`{"kind":"sim","workload":"stream","policy":"BE-Mellow+SC+WQ"}`,
	`{"kind":"compare","workload":"lbm"}`,
	`{"kind":"experiment","experiment":"fig11","workloads":["stream","gups"]}`,
	`{"kind":"compare","workload":"gups","interval_ns":500000}`,
	`{"kind":"compare","workload":"gups","trace":true}`,
	`{"kind":"sim","workload":"gups","policy":"BE-Mellow+SC","leveler":"wolfram"}`,
}

// post sends body to path and returns the status code, the decoded
// error message (empty on success) and the raw response.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := new(bytes.Buffer)
	raw.ReadFrom(resp.Body)
	var e APIError
	if resp.StatusCode >= 300 {
		if err := json.Unmarshal(raw.Bytes(), &e); err != nil {
			t.Fatalf("%s: error body %q: %v", path, raw, err)
		}
	}
	return resp.StatusCode, e.Error, raw.Bytes()
}

// TestAdmissionTable: POST /v1/jobs and a one-entry POST /v1/jobs:batch
// share one admission core, so every body gets the same answer from
// both. A rejection carries the same code and message (the batch's
// behind "jobs[0]: "); an accepted body is admitted by the single
// endpoint and answered by that same job on the batch endpoint. Once
// the server drains, both endpoints still answer finished work; only
// work that needs a fresh queue slot gets 503 with Retry-After.
func TestAdmissionTable(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 64, BaseConfig: tinyBase(1)})
	// Jobs finish at once without simulating: this test is about
	// admission alone.
	s.exec = func(ctx context.Context, js *jobState) (*JobResult, error) {
		return &JobResult{Key: js.key, Kind: js.kind}, nil
	}
	for _, tc := range admissionCases {
		code, msg, raw := post(t, ts, "/v1/jobs", tc.body)
		if code != tc.code || !strings.Contains(msg, tc.msg) {
			t.Errorf("%s: POST /v1/jobs = %d %q, want %d mentioning %q", tc.name, code, raw, tc.code, tc.msg)
			continue
		}
		bcode, bmsg, braw := post(t, ts, "/v1/jobs:batch", `{"jobs":[`+tc.body+`]}`)
		if tc.code != http.StatusAccepted {
			if bcode != code || bmsg != "jobs[0]: "+msg {
				t.Errorf("%s: batch = %d %q, want %d %q", tc.name, bcode, bmsg, code, "jobs[0]: "+msg)
			}
			continue
		}
		var st JobStatus
		var br BatchResponse
		json.Unmarshal(raw, &st)
		json.Unmarshal(braw, &br)
		if bcode != http.StatusOK || len(br.Jobs) != 1 || br.Jobs[0].ID != st.ID || !br.Jobs[0].Deduped {
			t.Errorf("%s: batch = %d %s, want 200 answered by %s", tc.name, bcode, braw, st.ID)
		}
	}
	// A body that is not a request never reaches the core.
	for _, path := range []string{"/v1/jobs", "/v1/jobs:batch"} {
		if code, msg, _ := post(t, ts, path, `{nope`); code != http.StatusBadRequest || !strings.HasPrefix(msg, "bad request body: ") {
			t.Errorf("malformed body to %s = %d %q, want 400 bad request body", path, code, msg)
		}
	}

	done := `{"kind":"sim","workload":"gups","policy":"Norm"}`
	st, code := postJob(t, ts, done)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, ts, st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	fresh := `{"kind":"sim","workload":"gups","policy":"Slow"}`
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/jobs", done, st.ID},
		{"/v1/jobs:batch", `{"jobs":[` + done + `]}`, st.ID},
		{"/v1/jobs", fresh, ""},
		{"/v1/jobs:batch", `{"jobs":[` + fresh + `]}`, ""},
		{"/v1/jobs:batch", `{"jobs":[` + done + `,` + fresh + `]}`, ""},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw := new(bytes.Buffer)
		raw.ReadFrom(resp.Body)
		resp.Body.Close()
		switch {
		case tc.want != "" && (resp.StatusCode != http.StatusOK || !strings.Contains(raw.String(), tc.want)):
			t.Errorf("draining %s %s = %d %s, want 200 answered by %s", tc.path, tc.body, resp.StatusCode, raw, tc.want)
		case tc.want == "" && (resp.StatusCode != http.StatusServiceUnavailable ||
			!strings.Contains(raw.String(), `"server is draining"`) || resp.Header.Get("Retry-After") == ""):
			t.Errorf("draining %s %s = %d %s (Retry-After %q), want 503 server is draining",
				tc.path, tc.body, resp.StatusCode, raw, resp.Header.Get("Retry-After"))
		}
	}
}

// requestFor spells a canonical job back as a request.
func requestFor(c canonicalJob) JobRequest {
	cfg := c.Config
	req := JobRequest{
		Kind: c.Kind, Config: &cfg, Experiment: c.Experiment, Scenario: c.Scenario,
		IntervalNS: c.IntervalNS, Metrics: c.Metrics, Trace: c.Trace,
	}
	switch c.Kind {
	case KindSim:
		req.Workload, req.Policy = c.Workloads[0], c.Policies[0]
	case KindCompare, KindExperiment:
		req.Workloads, req.Policies = slices.Clone(c.Workloads), slices.Clone(c.Policies)
	}
	return req
}

// TestConfigFieldsStrict: the strict request decoder reaches into the
// config object, so a misspelled config field is a 400 rather than a
// setting silently dropped.
func TestConfigFieldsStrict(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, BaseConfig: tinyBase(1)})
	body := `{"kind":"sim","workload":"stream","policy":"Norm","config":{"Run":{"Sed":3}}}`
	if code, msg, raw := post(t, ts, "/v1/jobs", body); code != http.StatusBadRequest || !strings.Contains(msg, `unknown field "Sed"`) {
		t.Errorf("POST /v1/jobs = %d %s, want 400 naming the unknown field", code, raw)
	}
}

// FuzzNormalize: admission never panics on any request body. An
// accepted request is canonical: it keeps its key through the
// admit-record round trip joblog replay takes, and the request rebuilt
// from its canonical form normalizes to the same job and key.
func FuzzNormalize(f *testing.F) {
	for _, tc := range admissionCases {
		f.Add(tc.body)
	}
	for _, body := range readmeRequests {
		f.Add(body)
	}
	entries, err := scenario.LoadDir(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		doc, err := json.Marshal(e.Scenario)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(`{"kind":"scenario","scenario":` + string(doc) + `}`)
	}
	base := *tinyBase(1)
	f.Fuzz(func(t *testing.T, body string) {
		var req JobRequest
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		c, key, err := normalize(req, base)
		if err != nil {
			return
		}
		logged, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request not serialisable: %v", err)
		}
		var replayed JobRequest
		if err := json.Unmarshal(logged, &replayed); err != nil {
			t.Fatalf("admit record not decodable: %v", err)
		}
		if _, k, err := normalize(replayed, base); err != nil || k != key {
			t.Fatalf("replayed request: key %s, %v; want %s", k, err, key)
		}
		c2, k2, err := normalize(requestFor(c), base)
		if err != nil || k2 != key {
			t.Fatalf("rebuilt request: key %s, %v; want %s", k2, err, key)
		}
		if !reflect.DeepEqual(c2, c) {
			t.Fatalf("rebuilt request normalizes to\n%+v\nwant\n%+v", c2, c)
		}
	})
}
