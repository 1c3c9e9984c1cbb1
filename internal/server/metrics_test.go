package server

import (
	"bufio"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mellow/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden files")

// stubQueue is a fixed queueInfo source for telemetry built outside a
// Server.
func stubQueue() queueInfo {
	return queueInfo{depth: 0, capacity: 64, workers: 2, results: 0}
}

// gateWriter blocks every Write until released, emulating a scraper
// that stopped reading mid-response.
type gateWriter struct {
	entered chan struct{} // closed on first Write
	release chan struct{} // writes block until this closes
	once    sync.Once
}

func newGateWriter() *gateWriter {
	return &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *gateWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestMetricsWriteDoesNotBlockObserve pins the snapshot-then-render
// contract: while an exposition write sits blocked on a stalled
// scraper, job-completion observes and even fresh snapshots must
// proceed. The old renderer held the telemetry mutex across the
// response write, so a slow client stalled every worker at its next
// latency observe.
func TestMetricsWriteDoesNotBlockObserve(t *testing.T) {
	tel := newTelemetry(stubQueue)
	tel.observe("sim", time.Millisecond) // a cell to render

	w := newGateWriter()
	writeDone := make(chan error, 1)
	go func() { writeDone <- tel.write(w) }()

	select {
	case <-w.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("exposition write never started")
	}

	// The writer is now blocked mid-render. Observes and snapshots
	// must still complete promptly.
	opsDone := make(chan struct{})
	go func() {
		defer close(opsDone)
		tel.observe("sim", 2*time.Millisecond)
		tel.observeWait(time.Millisecond)
		tel.accepted.Add(1)
		_ = tel.snapshot()
	}()
	select {
	case <-opsDone:
	case <-time.After(5 * time.Second):
		t.Fatal("observe blocked behind a stalled exposition writer")
	}

	close(w.release)
	select {
	case err := <-writeDone:
		if err != nil {
			t.Fatalf("write: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("exposition write never finished")
	}
}

// scrapeCounter fetches /metrics and returns the value of an unlabeled
// counter line. Errors are reported with t.Errorf so it is safe from
// scraper goroutines; ok is false when the scrape failed.
func scrapeCounter(t *testing.T, url, name string) (v uint64, ok bool) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Errorf("scrape: %v", err)
		return 0, false
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	found := false
	for sc.Scan() {
		line := sc.Text()
		if rest, cut := strings.CutPrefix(line, name+" "); cut {
			v, err = strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Errorf("parse %q: %v", line, err)
				return 0, false
			}
			found = true
			// Keep scanning: the body must drain for connection reuse.
		}
	}
	if err := sc.Err(); err != nil {
		t.Errorf("scrape read: %v", err)
		return 0, false
	}
	if !found {
		t.Errorf("counter %s not in exposition", name)
		return 0, false
	}
	return v, true
}

// TestMetricsScrapeDuringJobs hammers /metrics from several goroutines
// while jobs run to completion, asserting the scrape stays well-formed
// and the completion counter is monotone across scrapes. Run with
// -race, this is the witness that the hot paths and the snapshot walk
// are data-race-free.
func TestMetricsScrapeDuringJobs(t *testing.T) {
	experiments.ResetCache()
	_, ts := newTestServer(t, Config{Workers: 2, BaseConfig: tinyBase(401)})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var stopOnce sync.Once
	stopScrapers := func() {
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	// A Fatal below must not strand scraper goroutines reporting into a
	// finished test.
	defer stopScrapers()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, ok := scrapeCounter(t, ts.URL, "mellowd_jobs_completed_total")
				if !ok {
					return
				}
				if v < last {
					t.Errorf("completed counter went backwards: %d after %d", v, last)
					return
				}
				last = v
			}
		}()
	}

	ids := make([]string, 0, 3)
	for i, body := range []string{
		`{"kind":"sim","workload":"stream","policy":"Norm"}`,
		`{"kind":"sim","workload":"gups","policy":"Norm"}`,
		`{"kind":"sim","workload":"stream","policy":"B-Mellow"}`,
	} {
		st, code := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := waitDone(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	stopScrapers()

	if v, ok := scrapeCounter(t, ts.URL, "mellowd_jobs_completed_total"); ok && v != 3 {
		t.Errorf("completed = %d, want 3", v)
	}
}

// TestJobPerRunMetrics submits a compare job with per-run metrics on
// and checks the result carries one deterministic snapshot per matrix
// cell, aligned with the results slice.
func TestJobPerRunMetrics(t *testing.T) {
	experiments.ResetCache()
	_, ts := newTestServer(t, Config{Workers: 2, BaseConfig: tinyBase(503)})

	body := `{"kind":"compare","workload":"stream","policies":["Norm","B-Mellow"],"metrics":true}`
	st, code := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	st = waitDone(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	res := st.Result
	if res == nil {
		t.Fatal("no result")
	}
	if len(res.Metrics) != len(res.Results) || len(res.Results) != 2 {
		t.Fatalf("metrics/results = %d/%d, want 2/2", len(res.Metrics), len(res.Results))
	}
	for i, snap := range res.Metrics {
		if snap == nil || len(snap.Families) == 0 {
			t.Fatalf("cell %d: empty snapshot", i)
		}
		if v := snap.Value("sim_mem_reads_total"); v <= 0 {
			t.Errorf("cell %d: sim_mem_reads_total = %v, want > 0", i, v)
		}
	}

	// Same job without metrics: same simulations, no snapshots, and a
	// distinct content key — the flag changes the payload.
	st2, code := postJob(t, ts, `{"kind":"compare","workload":"stream","policies":["Norm","B-Mellow"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	if st2.Key == st.Key {
		t.Error("metrics flag did not enter the content key")
	}
	st2 = waitDone(t, ts, st2.ID)
	if st2.State != StateDone {
		t.Fatalf("job 2: %s (%s)", st2.State, st2.Error)
	}
	if len(st2.Result.Metrics) != 0 {
		t.Errorf("unflagged job carried %d snapshots", len(st2.Result.Metrics))
	}
}

// TestMetricNamesGolden pins the process registry's full name set — the
// exposition's "name kind" lines — against a checked-in golden file, so
// a metric rename, removal or kind change has to be a conscious diff.
// Regenerate with: go test ./internal/server -run MetricNamesGolden -update
func TestMetricNamesGolden(t *testing.T) {
	tel := newTelemetry(stubQueue)
	got := strings.Join(tel.snapshot().Names(), "\n") + "\n"

	path := filepath.Join("testdata", "metric_names.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric name set drifted from %s (regenerate with -update):\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}

	// Every name must carry a TYPE line in the rendered exposition,
	// even for families with no cells yet, so the full taxonomy is
	// visible from the first scrape.
	var sb strings.Builder
	if err := tel.write(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		name, kind, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		if want := "# TYPE " + name + " " + kind + "\n"; !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", strings.TrimSpace(want))
		}
	}
}
