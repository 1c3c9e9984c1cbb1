package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mellow/internal/stats"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.")
	c.Add(1)
	c.Add(4)
	g := r.Gauge("depth", "Depth.")
	g.Set(3)
	g.Dec()

	s := r.Snapshot()
	if v := s.Value("jobs_total"); v != 5 {
		t.Errorf("counter = %v, want 5", v)
	}
	if v := s.Value("depth"); v != 2 {
		t.Errorf("gauge = %v, want 2", v)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "X.")
	b := r.Counter("x_total", "X.")
	if a != b {
		t.Fatal("re-registering the same counter returned a different handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "X.")
}

func TestHistogramMatchesStats(t *testing.T) {
	var h Histogram
	var want stats.Histogram
	for _, v := range []uint64{0, 1, 2, 3, 100, 5000, 1 << 40} {
		h.Observe(v)
		want.Add(v)
	}
	got := h.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("atomic histogram snapshot diverges from stats.Histogram:\n got %+v\nwant %+v", got, want)
	}
}

func TestVecCells(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("by_kind_seconds", "By kind.", "kind", 1e-6)
	v.With("sim").Observe(1000)
	v.With("sim").Observe(3000)
	v.With("compare").Observe(2000)

	s := r.Snapshot()
	f, ok := s.Get("by_kind_seconds")
	if !ok || len(f.Cells) != 2 {
		t.Fatalf("family missing or wrong cells: %+v", f)
	}
	// Deterministic label order.
	if f.Cells[0].Label != "compare" || f.Cells[1].Label != "sim" {
		t.Errorf("cells not sorted: %+v", f.Cells)
	}
	if n := f.Cells[1].Hist.Count(); n != 2 {
		t.Errorf("sim cell count = %v, want 2", n)
	}
	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE by_kind_seconds histogram\n",
		`by_kind_seconds_count{kind="compare"} 1`,
		`by_kind_seconds_sum{kind="sim"} 0.004`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestCollectorAndRawLabels(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(g *Gatherer) {
		g.Counter("col_total", "From a collector.", 7)
		g.GaugeL("banks", "Per bank.", "bank", "01", 2.5)
		g.GaugeL("banks", "Per bank.", "bank", "00", 1.5)
		g.GaugeRaw("build_info", "Build.", `go_version="go1.22",rev="abc"`, 1)
		var h stats.Histogram
		h.Add(3)
		g.Histogram("wait_seconds", "Wait.", 1e-6, h)
	})
	s := r.Snapshot()
	if v := s.Value("col_total"); v != 7 {
		t.Errorf("collector counter = %v", v)
	}
	f, _ := s.Get("banks")
	if len(f.Cells) != 2 || f.Cells[0].Label != "00" {
		t.Errorf("labelled collector cells wrong: %+v", f.Cells)
	}

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE banks gauge\n",
		`banks{bank="00"} 1.5`,
		`build_info{go_version="go1.22",rev="abc"} 1`,
		"col_total 7",
		`wait_seconds_bucket{le="+Inf"} 1`,
		"wait_seconds_sum 3e-06",
		"wait_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestEmptyFamilyStillExposesTypeLine(t *testing.T) {
	r := NewRegistry()
	r.HistogramVec("dur_seconds", "Durations.", "kind", 1e-6)
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE dur_seconds histogram\n") {
		t.Errorf("empty vec family lost its TYPE line:\n%s", b.String())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.").Add(3)
	r.Gauge("b", "B.").Set(1.25)
	r.Histogram("c_seconds", "C.", 1e-6).Observe(42)
	s := r.Snapshot()

	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Errorf("snapshot JSON not stable across a round trip:\n%s\n%s", b, b2)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("z_total", "Z.").Add(2)
		r.Counter("a_total", "A.").Add(1)
		v := r.HistogramVec("k_seconds", "K.", "kind", 1e-6)
		v.With("b").Observe(1)
		v.With("a").Observe(2)
		return r.Snapshot()
	}
	a, _ := json.Marshal(build())
	b, _ := json.Marshal(build())
	if string(a) != string(b) {
		t.Errorf("equal registries snapshot to different bytes:\n%s\n%s", a, b)
	}
}

// TestConcurrentHotPath hammers every handle type while snapshots are
// taken — the -race witness that the hot paths hold up without locks.
func TestConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "Hits.")
	g := r.Gauge("inflight", "In flight.")
	h := r.Histogram("lat", "Latency.", 1)
	v := r.HistogramVec("kinds_seconds", "Kinds.", "kind", 1)
	labels := []string{"a", "b", "c", "d"}

	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Add(1)
				g.Add(1)
				h.Observe(uint64(i))
				v.With(labels[(w+i)%len(labels)]).Observe(uint64(i))
				if i%256 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()

	s := r.Snapshot()
	if got := s.Value("hits_total"); got != workers*iters {
		t.Errorf("hits_total = %v, want %d", got, workers*iters)
	}
	f, _ := s.Get("kinds_seconds")
	var sum uint64
	for _, cell := range f.Cells {
		sum += cell.Hist.Count()
	}
	if sum != workers*iters {
		t.Errorf("vec total = %v, want %d", sum, workers*iters)
	}
	hist, _ := s.Get("lat")
	if hist.Cells[0].Hist.Count() != workers*iters {
		t.Errorf("histogram count = %d, want %d", hist.Cells[0].Hist.Count(), workers*iters)
	}
}

func TestGoRuntimeCollector(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(GoRuntime("svc_"))
	s := r.Snapshot()
	if s.Value("svc_go_goroutines") < 1 {
		t.Error("goroutine gauge missing")
	}
	if _, ok := s.Get("svc_go_gc_cycles_total"); !ok {
		t.Error("gc counter missing")
	}
}
