package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"mellow/internal/engine"
	"mellow/internal/experiments"
	"mellow/internal/sim"
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
	l := newEpochLog(2, nil)
	l.plan(make([]experiments.SeriesRecord, 5))
	for i := 0; i < 5; i++ {
		l.epoch(i, engine.EpochSample{})
	}
	l.seal("", nil)
	evs, sealed, _ := l.read(&cursor{})
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
	l.epoch(0, engine.EpochSample{})
	if evs2, _, _ := l.read(&cursor{}); len(evs2) != len(evs) {
		t.Error("append after terminal extended the log")
	}
}

// TestObservedMixJob: an observed, traced ext6 job streams epoch events
// for its mixes and records their cell spans and timelines under the
// mix's label, the core names joined by "+", as its report's records
// are named.
func TestObservedMixJob(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, SimBudget: 2, BaseConfig: tinyBase(421)})
	st, code := postJob(t, ts, `{"kind":"experiment","experiment":"ext6","interval_ns":40000,"trace":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	fin := waitDone(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job failed: %s", fin.Error)
	}
	recs := resultSeries(t, fin)
	if len(recs) != 12 {
		t.Fatalf("ext6 job carries %d series records, want 12", len(recs))
	}
	epochs := 0
	for _, ev := range readEvents(t, ts, st.ID) {
		if ev.Type != EventEpoch {
			continue
		}
		if r := recs[ev.Cell]; ev.Workload != r.Workload || ev.Policy != r.Policy {
			t.Fatalf("cell %d event labelled %s/%s, record %s/%s", ev.Cell, ev.Workload, ev.Policy, r.Workload, r.Policy)
		}
		if ev.Workload == "lbm+mcf" {
			epochs++
		}
	}
	if epochs == 0 {
		t.Error("no epoch event labelled lbm+mcf")
	}
	resp, body := getTrace(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch = %d: %s", resp.StatusCode, body)
	}
	var doc chromeTrace
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "b" && strings.HasPrefix(e.Name, "sim ") {
			spans[e.Name] = true
		}
	}
	if len(spans) != len(recs) || !spans["sim lbm+mcf/Norm"] || spans["sim /Norm"] {
		t.Errorf("cell spans %v, want one per cell, sim lbm+mcf/Norm among them", spans)
	}
}

// sseFrame is one event of a raw SSE feed: its id, event and data lines.
type sseFrame struct{ id, event, data string }

// readSSE subscribes to a job's feed and returns its raw frames up to
// and including the terminal event.
func readSSE(t *testing.T, ts *httptest.Server, id string) []sseFrame {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frames []sseFrame
	var f sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			f.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			f.data = strings.TrimPrefix(line, "data: ")
		case line == "" && f.event != "":
			frames = append(frames, f)
			if f.event == EventDone || f.event == EventFailed {
				return frames
			}
			f = sseFrame{}
		}
	}
	t.Fatalf("job %s: feed ended without a terminal event (%d frames, scan err %v)", id, len(frames), sc.Err())
	return nil
}

// cellOrder rewrites a feed whose cells ran one at a time into the
// order a run finishing its cells in index order would have logged:
// each cell's epoch frames, which must be contiguous, move to their
// cell's place, and every frame's id and seq are renumbered. The
// arrival order of cells is the one thing about a feed that the
// goroutine schedule decides; every byte of every frame stays pinned.
func cellOrder(t *testing.T, frames []sseFrame) []sseFrame {
	t.Helper()
	var blocks [][]sseFrame
	var rest []sseFrame
	at := map[int]int{} // cell → its block
	last := -1
	for _, f := range frames {
		if f.event != EventEpoch {
			rest = append(rest, f)
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatal(err)
		}
		b, seen := at[ev.Cell]
		if !seen {
			b = len(blocks)
			at[ev.Cell] = b
			blocks = append(blocks, nil)
		} else if ev.Cell != last {
			t.Fatalf("cell %d's epoch frames are not contiguous: run the job one cell at a time", ev.Cell)
		}
		last = ev.Cell
		blocks[b] = append(blocks[b], f)
	}
	cells := make([]int, 0, len(at))
	for c := range at {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	var out []sseFrame
	for _, c := range cells {
		out = append(out, blocks[at[c]]...)
	}
	out = append(out, rest...)
	for i := range out {
		seq, rest, ok := strings.Cut(strings.TrimPrefix(out[i].data, `{"seq":`), ",")
		if !ok || seq != out[i].id {
			t.Fatalf("frame %q: data does not open with its seq %s", out[i].data, out[i].id)
		}
		out[i].id = strconv.Itoa(i)
		out[i].data = `{"seq":` + out[i].id + "," + rest
	}
	return out
}

// TestStreamReplayGolden pins, byte for byte, the SSE feed a subscriber
// that attaches after finish replays: every id, event and data line of
// an observed compare job, an observed fig18 experiment job, and an
// observed sim job whose log the stream bound truncates (first line of
// each section the job's name). The jobs run one cell at a time, and
// cellOrder takes out the order in which their cells finished; the
// late feed must also equal, unreordered, the feed a subscriber saw
// live. Regenerate with -update.
func TestStreamReplayGolden(t *testing.T) {
	experiments.ResetCache() // every cell streams live, not from the memo
	jobs := []struct{ name, body string }{
		{"compare", `{"kind":"compare","workloads":["stream","gups"],"policies":["Norm","BE-Mellow+SC"],"interval_ns":15000,"seed":433}`},
		{"fig18", `{"kind":"experiment","experiment":"fig18","interval_ns":40000,"trace":true,"seed":433}`},
		{"truncated", `{"kind":"sim","workload":"lbm","policy":"Norm","interval_ns":5000,"seed":433}`},
	}
	var got strings.Builder
	for _, j := range jobs {
		// SimBudget 1 runs one cell at a time, so each cell's epochs
		// arrive as one block; a bound of 5 truncates the sim job.
		s, ts := newTestServer(t, Config{Workers: 1, SimBudget: 1, BaseConfig: tinyBase(433)})
		if j.name == "truncated" {
			s.streamBound = 5
		}
		st, code := postJob(t, ts, j.body)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit = %d, want 202", j.name, code)
		}
		liveCh := make(chan []sseFrame, 1)
		go func() { liveCh <- readSSE(t, ts, st.ID) }()
		if fin := waitDone(t, ts, st.ID); fin.State != StateDone {
			t.Fatalf("%s: job failed: %s", j.name, fin.Error)
		}
		live := <-liveCh
		late := readSSE(t, ts, st.ID)
		if !slices.Equal(live, late) {
			t.Errorf("%s: the late feed differs from the live one", j.name)
		}
		fmt.Fprintf(&got, "# %s\n", j.name)
		for _, f := range cellOrder(t, late) {
			fmt.Fprintf(&got, "id: %s\nevent: %s\ndata: %s\n\n", f.id, f.event, f.data)
		}
	}
	path := filepath.Join("testdata", "stream_replay.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("late SSE replay drifted from %s (regenerate with -update):\ngot:\n%s", path, got.String())
	}
}

// refLog is the reference model of a job's event log: it keeps every
// event it publishes, so replay is reading its slice. A memo hit or a
// joined run's cell flushes its whole series on completion; a cell
// that ran live flushes the samples it did not stream.
type refLog struct {
	events  []StreamEvent
	bound   int
	dropped uint64
}

func (l *refLog) append(ev StreamEvent) {
	if n := len(l.events); n > 0 && (l.events[n-1].Type == EventDone || l.events[n-1].Type == EventFailed) {
		return
	}
	if ev.Type == EventEpoch && len(l.events) >= l.bound {
		if l.dropped++; l.dropped > 1 {
			return
		}
		ev = StreamEvent{Type: EventTruncated, Cell: -1, Dropped: 1}
	}
	ev.Seq = len(l.events)
	l.events = append(l.events, ev)
}

func (l *refLog) epoch(cell int, rec experiments.SeriesRecord, s engine.EpochSample) {
	l.append(StreamEvent{Type: EventEpoch, Cell: cell, Variant: rec.Variant,
		Workload: rec.Workload, Policy: rec.Policy, Sample: &s})
}

func (l *refLog) flushSeries(cell int, rec experiments.SeriesRecord, streamed int) {
	for _, s := range rec.Series[min(streamed, len(rec.Series)):] {
		l.epoch(cell, rec, s)
	}
}

func (l *refLog) finish(errMsg string) {
	if errMsg != "" {
		l.append(StreamEvent{Type: EventFailed, Cell: -1, Error: errMsg})
		return
	}
	l.append(StreamEvent{Type: EventDone, Cell: -1})
}

// sseBytes renders events as a subscriber receives them.
func sseBytes(t *testing.T, evs []StreamEvent) string {
	t.Helper()
	rec := httptest.NewRecorder()
	for _, ev := range evs {
		if err := writeSSE(rec, ev); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Body.String()
}

// refCursor places a cursor at seq of the reference log: past seq
// events, each cell's next sample is the count of its epoch events
// among them.
func refCursor(ref *refLog, seq, cells int) *cursor {
	c := &cursor{seq: seq, next: make([]int, cells)}
	for _, ev := range ref.events[:min(seq, len(ref.events))] {
		if ev.Type == EventEpoch {
			c.next[ev.Cell]++
		}
	}
	return c
}

// FuzzSealedStream drives an epoch log and the reference model through
// one random run: cells that stream their samples live and deliver
// their series on completion, interleaved in any order, memo-hit cells
// that stream nothing live and deliver their whole series on
// completion, any bound, and a done or failed end. The log's SSE bytes
// must equal the reference's for a subscriber that follows the run
// live, for one placed at every seq before the seal that reads on
// across it, and for one placed at every seq after it.
func FuzzSealedStream(f *testing.F) {
	f.Add([]byte{3, 4, 2, 5, 0, 1, 2, 0, 1, 2, 1, 0}, uint8(0), uint8(7))
	f.Add([]byte{1, 9}, uint8(3), uint8(2))
	f.Add([]byte{2, 1, 1, 0, 1, 1, 1}, uint8(1), uint8(0))
	f.Add([]byte{1, 3, 2, 0, 1, 0, 1, 0}, uint8(0), uint8(0))
	f.Add([]byte{3, 5, 3, 4, 2, 0, 1, 2, 2, 1, 0, 0, 1}, uint8(4), uint8(0x05))
	f.Add([]byte{4, 6, 2, 7, 3, 1, 1, 0, 3, 2, 0, 1, 3, 2}, uint8(0x83), uint8(0x12))
	f.Fuzz(func(t *testing.T, data []byte, bound, modes uint8) {
		if len(data) == 0 {
			return
		}
		// data: the cell count, each cell's sample count, then the
		// order in which the run's steps happen. modes: which cells
		// are memo hits (bits 0-3), and from bit 4 on the step at
		// which a failing run stops.
		n := int(data[0])%4 + 1
		data = data[1:]
		recs := make([]experiments.SeriesRecord, n)
		labels := make([]experiments.SeriesRecord, n)
		for c := range recs {
			k := 0
			if c < len(data) {
				k = int(data[c]) % 12
			}
			labels[c] = experiments.SeriesRecord{Variant: []string{"", "8"}[c%2],
				Workload: []string{"mcf", "lbm", "gups"}[c%3], Policy: []string{"Norm", "BE-Mellow+SC"}[c%2]}
			recs[c] = labels[c]
			for e := 0; e < k; e++ {
				recs[c].Series = append(recs[c].Series, engine.EpochSample{Epoch: e, Phase: "detailed",
					End: sim.Tick(100 * (e + 1)), Instructions: uint64(c*1000 + e), IPC: float64(e) / 3, Progress: float64(e+1) / float64(k)})
			}
		}
		data = data[min(n, len(data)):]
		failed := bound&0x80 != 0
		bound &= 0x7f
		stop := -1 // a failing run's last step
		if failed {
			stop = int(modes >> 4)
		}

		ref := &refLog{bound: int(bound)}
		if ref.bound <= 0 {
			ref.bound = DefaultStreamBuffer
		}
		l := newEpochLog(int(bound), nil)
		l.plan(slices.Clone(labels))
		follow := &cursor{}
		var followed []StreamEvent
		streamed := make([]int, n)
		retired := make([]bool, n)
		for step := 0; step != stop; step++ {
			var open []int
			for c := range recs {
				if !retired[c] {
					open = append(open, c)
				}
			}
			if len(open) == 0 {
				break
			}
			c := open[0]
			if step < len(data) {
				c = open[int(data[step])%len(open)]
			}
			memo := modes&(1<<c) != 0
			if !memo && streamed[c] < len(recs[c].Series) {
				s := recs[c].Series[streamed[c]]
				streamed[c]++
				ref.epoch(c, recs[c], s)
				l.epoch(c, s)
			} else {
				retired[c] = true
				ref.flushSeries(c, recs[c], streamed[c])
				l.done(c, recs[c].Series)
			}
			evs, _, _ := l.read(follow)
			followed = append(followed, evs...)
		}

		// Subscribers placed at every seq read up to the seal...
		cut := len(ref.events) + 2
		across := make([]*cursor, cut)
		before := make([]string, cut)
		for seq := range across {
			across[seq] = refCursor(ref, seq, n)
			evs, sealed, _ := l.read(across[seq])
			if sealed {
				t.Fatal("log sealed before the terminal event")
			}
			before[seq] = sseBytes(t, evs)
		}
		if failed {
			ref.finish("boom")
			l.seal("boom", nil)
		} else {
			ref.finish("")
			held := holdResult(&JobResult{Series: recs})
			l.seal("", &held)
			if l.recs != nil || l.cells != nil {
				t.Fatal("a sealed done log kept its own samples")
			}
		}
		evs, sealed, _ := l.read(follow)
		if !sealed {
			t.Fatal("log not sealed after its terminal event")
		}
		want := sseBytes(t, ref.events)
		if got := sseBytes(t, append(followed, evs...)); got != want {
			t.Fatalf("a live subscriber read:\n%s\nreference:\n%s", got, want)
		}
		// ...and on across it.
		for seq, c := range across {
			evs, _, _ := l.read(c)
			w := sseBytes(t, ref.events[min(seq, len(ref.events)):])
			if got := before[seq] + sseBytes(t, evs); got != w {
				t.Fatalf("a subscriber at %d across the seal read:\n%s\nreference:\n%s", seq, got, w)
			}
		}
		for seq := range len(ref.events) + 2 {
			evs, _, _ := l.read(refCursor(ref, seq, n))
			if got, w := sseBytes(t, evs), sseBytes(t, ref.events[min(seq, len(ref.events)):]); got != w {
				t.Fatalf("sealed replay from %d:\n%s\nreference:\n%s", seq, got, w)
			}
		}
	})
}
