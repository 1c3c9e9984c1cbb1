package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mellow/internal/engine"
	"mellow/internal/experiments"
)

// readEventsErr subscribes to a job's SSE feed and decodes events until
// the terminal done/failed event (which is included) or the deadline.
// It is goroutine-safe (no testing.T calls) so subscribers can run
// concurrently with the job.
func readEventsErr(ts *httptest.Server, id string) ([]StreamEvent, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events subscribe = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return nil, fmt.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // id:, event:, keepalive comments, blank separators
		}
		var ev StreamEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return nil, fmt.Errorf("bad event payload %q: %v", line, err)
		}
		events = append(events, ev)
		if ev.Type == EventDone || ev.Type == EventFailed {
			return events, nil
		}
	}
	return nil, fmt.Errorf("stream ended without a terminal event (%d events, scan err %v)", len(events), sc.Err())
}

func readEvents(t *testing.T, ts *httptest.Server, id string) []StreamEvent {
	t.Helper()
	events, err := readEventsErr(ts, id)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// epochJSON renders a subscriber's epoch events for one cell as JSON
// lines — the byte-level form both sides of the determinism contract
// are compared in.
func epochJSON(t *testing.T, events []StreamEvent, cell int) []string {
	t.Helper()
	var out []string
	for _, ev := range events {
		if ev.Type != EventEpoch || ev.Cell != cell {
			continue
		}
		b, err := json.Marshal(ev.Sample)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

// resultSeries returns a finished job's series records: a sim or
// compare job's Series, or an experiment job's report series.
func resultSeries(t *testing.T, st JobStatus) []experiments.SeriesRecord {
	t.Helper()
	if st.Result == nil {
		t.Fatal("job has no result")
	}
	if st.Result.Report != nil {
		return st.Result.Report.Series
	}
	return st.Result.Series
}

// seriesJSON renders a result series the same way.
func seriesJSON(t *testing.T, st JobStatus, cell int) []string {
	t.Helper()
	recs := resultSeries(t, st)
	if cell >= len(recs) {
		t.Fatalf("result has no series for cell %d", cell)
	}
	var out []string
	for _, s := range recs[cell].Series {
		s := s
		b, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

func sameLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamMatchesResultSeries is the streaming face of the
// determinism contract: subscribers attached while the job is queued
// and long after it finished both observe, per cell, exactly the epoch
// series the finished result embeds — identical bytes, identical order,
// identical labels. An observed experiment job streams like a compare
// job: every epoch event carries its cell's index in the experiment's
// batch, and when traced its span artifact holds one cell span per cell.
func TestStreamMatchesResultSeries(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 2, SimBudget: 4, BaseConfig: tinyBase(401)})
	for _, body := range []string{
		`{"kind":"compare","workloads":["stream","gups"],"policies":["BE-Mellow+SC"],"interval_ns":40000}`,
		`{"kind":"experiment","experiment":"fig18","interval_ns":40000,"trace":true}`,
	} {
		st, code := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit = %d, want 202", body, code)
		}

		// Early subscriber: attached before the run, lives through it.
		type sub struct {
			events []StreamEvent
			err    error
		}
		earlyCh := make(chan sub, 1)
		go func() {
			events, err := readEventsErr(ts, st.ID)
			earlyCh <- sub{events, err}
		}()

		fin := waitDone(t, ts, st.ID)
		if fin.State != StateDone {
			t.Fatalf("%s: job failed: %s", body, fin.Error)
		}
		got := <-earlyCh
		if got.err != nil {
			t.Fatalf("%s: early subscriber: %v", body, got.err)
		}
		early := got.events
		// Late subscriber: attached after completion, replays from scratch.
		late := readEvents(t, ts, st.ID)

		if last := early[len(early)-1]; last.Type != EventDone {
			t.Fatalf("%s: early subscriber terminal = %s, want done", body, last.Type)
		}
		for i, ev := range late {
			if ev.Seq != i {
				t.Fatalf("%s: late subscriber seq[%d] = %d: replay must start at 0", body, i, ev.Seq)
			}
		}
		recs := resultSeries(t, fin)
		for _, ev := range early {
			if ev.Type != EventEpoch {
				continue
			}
			if ev.Cell < 0 || ev.Cell >= len(recs) {
				t.Fatalf("%s: epoch event for cell %d, result has %d records", body, ev.Cell, len(recs))
			}
			if r := recs[ev.Cell]; ev.Variant != r.Variant || ev.Workload != r.Workload || ev.Policy != r.Policy {
				t.Fatalf("%s: cell %d event labelled %s/%s/%s, record %s/%s/%s", body, ev.Cell,
					ev.Variant, ev.Workload, ev.Policy, r.Variant, r.Workload, r.Policy)
			}
		}
		for cell := range recs {
			want := seriesJSON(t, fin, cell)
			if len(want) == 0 {
				t.Fatalf("%s: cell %d: result series empty", body, cell)
			}
			if got := epochJSON(t, early, cell); !sameLines(got, want) {
				t.Errorf("%s: cell %d: early subscriber saw %d epochs, result embeds %d (or bytes differ)",
					body, cell, len(got), len(want))
			}
			if got := epochJSON(t, late, cell); !sameLines(got, want) {
				t.Errorf("%s: cell %d: late subscriber saw %d epochs, result embeds %d (or bytes differ)",
					body, cell, len(got), len(want))
			}
		}
		if !sameLines(eventJSON(t, early), eventJSON(t, late)) {
			t.Errorf("%s: early and late subscribers observed different event sequences", body)
		}
		if fin.Result.Report == nil {
			continue
		}
		// fig18: GemsFDTD × {16, 8, 4} banks × {Norm, BE-Mellow+SC}.
		if len(recs) != 6 {
			t.Fatalf("fig18 job carries %d series records, want 6", len(recs))
		}
		resp, tb := getTrace(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace fetch = %d: %s", resp.StatusCode, tb)
		}
		var doc chromeTrace
		if err := json.Unmarshal(tb, &doc); err != nil {
			t.Fatal(err)
		}
		spans := 0
		for _, e := range doc.TraceEvents {
			if e.Ph == "b" && strings.HasPrefix(e.Name, "sim ") {
				spans++
			}
		}
		if spans != len(recs) {
			t.Errorf("traced fig18 job has %d cell spans, want one per cell (%d)", spans, len(recs))
		}
	}
}

// eventJSON renders a whole event sequence as JSON lines.
func eventJSON(t *testing.T, events []StreamEvent) []string {
	t.Helper()
	out := make([]string, len(events))
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// TestStreamMemoHitFlushes submits the same underlying simulation twice
// under two job keys (sim vs compare kind). The second job's simulation
// is a memo hit — no live OnEpoch callbacks fire — so its stream is fed
// entirely by the completion-time series flush, and must still match
// its result series exactly.
func TestStreamMemoHitFlushes(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 2, BaseConfig: tinyBase(409)})
	first, code := postJob(t, ts,
		`{"kind":"sim","workload":"stream","policy":"Norm","interval_ns":40000}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	if fin := waitDone(t, ts, first.ID); fin.State != StateDone {
		t.Fatalf("first job failed: %s", fin.Error)
	}
	second, code := postJob(t, ts,
		`{"kind":"compare","workloads":["stream"],"policies":["Norm"],"interval_ns":40000}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit = %d (the compare kind must not dedupe against the sim kind)", code)
	}
	fin := waitDone(t, ts, second.ID)
	if fin.State != StateDone {
		t.Fatalf("second job failed: %s", fin.Error)
	}
	events := readEvents(t, ts, second.ID)
	want := seriesJSON(t, fin, 0)
	if len(want) == 0 {
		t.Fatal("result series empty")
	}
	if got := epochJSON(t, events, 0); !sameLines(got, want) {
		t.Errorf("memo-hit stream: %d epochs vs %d in result (or bytes differ)", len(got), len(want))
	}
}

// TestStreamFailedJob checks a failing job's stream terminates with a
// failed event carrying the error.
func TestStreamFailedJob(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 1, BaseConfig: tinyBase(419)})
	s.exec = func(ctx context.Context, js *jobState) (*JobResult, error) {
		return nil, fmt.Errorf("boom")
	}
	st, code := postJob(t, ts, `{"kind":"sim","workload":"stream","policy":"Norm"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, ts, st.ID)
	events := readEvents(t, ts, st.ID)
	last := events[len(events)-1]
	if last.Type != EventFailed || !strings.Contains(last.Error, "boom") {
		t.Fatalf("terminal = %+v, want failed event carrying the error", last)
	}
}

// TestStreamUnknownJob checks the 404 path.
func TestStreamUnknownJob(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, BaseConfig: tinyBase(421)})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestStreamLogBound pins the drop policy: epoch events past the bound
// are dropped and counted, exactly one truncated marker is appended,
// published events are never mutated, and the terminal event still
// lands and seals the log.
func TestStreamLogBound(t *testing.T) {
	t.Parallel()
	l := newStreamLog(2, nil)
	for i := 0; i < 5; i++ {
		l.append(StreamEvent{Type: EventEpoch, Cell: i})
	}
	l.finish("")
	evs, sealed, _ := l.next(0)
	if !sealed {
		t.Fatal("log not sealed after finish")
	}
	types := make([]string, len(evs))
	for i, ev := range evs {
		types[i] = ev.Type
		if ev.Seq != i {
			t.Errorf("seq[%d] = %d", i, ev.Seq)
		}
	}
	want := []string{EventEpoch, EventEpoch, EventTruncated, EventDone}
	if !sameLines(types, want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}
	if l.dropped != 3 {
		t.Errorf("dropped = %d, want 3", l.dropped)
	}
	if evs[2].Dropped != 1 {
		t.Errorf("truncated marker carries Dropped=%d; published events are immutable", evs[2].Dropped)
	}
	// Appends after the terminal are ignored.
	l.append(StreamEvent{Type: EventEpoch})
	if evs2, _, _ := l.next(0); len(evs2) != len(evs) {
		t.Error("append after terminal extended the log")
	}
}

// TestStreamLogNilSafe: jobStates built by hand in tests carry no
// stream; every method must tolerate the nil receiver.
func TestStreamLogNilSafe(t *testing.T) {
	t.Parallel()
	var l *streamLog
	l.append(StreamEvent{Type: EventEpoch})
	l.epoch(0, experiments.SeriesRecord{}, engine.EpochSample{})
	l.flushSeries(0, experiments.SeriesRecord{}, 0)
	l.finish("")
}
