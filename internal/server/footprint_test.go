package server

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"mellow/internal/experiments"
)

// finishedKeeps runs n jobs of the simulation body asks for, under n
// distinct keys, and returns the heap the server keeps live per
// finished job, and the first job's held and rebuilt result and its
// epoch log. Every job after the first is a memo hit, so each builds
// its own fresh result and epoch log as a real job does, and the
// memo's own bytes stay out of the difference.
func finishedKeeps(t *testing.T, body string, n int) (float64, heldResult, *JobResult, *epochLog) {
	t.Helper()
	var req JobRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	tmpl, _, err := normalize(req, *tinyBase(1))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 1, MaxResults: 2 * n, BaseConfig: tinyBase(1), Logger: quietLogger()})
	defer s.Shutdown(context.Background())
	s.exec = func(ctx context.Context, js *jobState) (*JobResult, error) {
		js.run.canon = tmpl // the same simulation under the job's own key
		return runJob(ctx, js)
	}
	run := func(seed uint64) {
		req.Seed = &seed
		st, code, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submit = %d: %v", code, err)
		}
		s.mu.Lock()
		done := s.jobs[st.ID].done
		s.mu.Unlock()
		<-done
	}
	run(0) // memoises the simulation
	var before, after runtime.MemStats
	// Two collections empty the pools the simulation filled.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= n; i++ {
		run(uint64(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.finished) != n+1 {
		t.Fatalf("server holds %d finished jobs, want %d", len(s.finished), n+1)
	}
	js := s.jobs[s.finished[0]]
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n), js.result, js.result.get(js.key, js.kind), js.epochs
}

// TestFinishedJobFootprint bounds what mellowd keeps live per finished
// job, at the shapes the service mix submits: a plain sim, an observed
// sim (interval_ns) and a 2×2 compare job. A plain sim keeps ~1.1 KB,
// a compare job ~2.3 KB, and an observed job ~75 B more a sample of its
// series. Holding the live job record, the unpacked result and the
// stream log's copy of every sample, they kept 2.9 KB, 6.5 KB and
// ~640 B a sample, which fails each bound. The test also checks that
// the held form is the smaller of the two a result could be kept in,
// its packed bytes or its JSON, and that a done job's sealed epoch log
// holds no samples of its own, only the cell of each epoch event.
func TestFinishedJobFootprint(t *testing.T) {
	experiments.ResetCache()
	defer experiments.ResetCache()
	const run = `"detailed":100000,"warmup":0`
	var plain float64
	for _, c := range []struct {
		name, body string
		bound      float64
	}{
		{"plain sim", `{"kind":"sim","workload":"hmmer","policy":"BE-Mellow+SC+WQ",` + run + `}`, 1400},
		{"observed sim", `{"kind":"sim","workload":"mcf","policy":"Norm","interval_ns":5000,` + run + `}`, 100},
		{"compare", `{"kind":"compare","workloads":["lbm","gups"],"policies":["Norm","BE-Mellow+SC"],` + run + `}`, 2800},
	} {
		keeps, held, res, log := finishedKeeps(t, c.body, 256)
		body, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if len(held.packed) >= len(body) {
			t.Errorf("%s: packed result %d B, its JSON %d B: keep the JSON", c.name, len(held.packed), len(body))
		}
		samples := 0
		for _, r := range res.Series {
			samples += len(r.Series)
		}
		if log.recs != nil || log.cells != nil || log.held == nil || len(log.order) != samples {
			t.Errorf("%s: sealed log keeps %d cell records and %d cells, %d event cells for %d samples: want only the event cells",
				c.name, len(log.recs), len(log.cells), len(log.order), samples)
		}
		t.Logf("%s: %.0f B a finished job (%d results, %d samples; packed %d B, JSON %d B)",
			c.name, keeps, len(res.Results), samples, len(held.packed), len(body))
		got := keeps
		if samples > 0 {
			got = (keeps - plain) / float64(samples)
			t.Logf("%s: %.0f B a sample", c.name, got)
		} else if plain == 0 {
			plain = keeps
		}
		if got > c.bound {
			t.Errorf("%s: keeps %.0f B, want <= %.0f B", c.name, got, c.bound)
		}
	}
}
