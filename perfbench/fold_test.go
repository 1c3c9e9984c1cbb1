package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestFoldTracesFixedProfile(t *testing.T) {
	f, err := os.Open("testdata/small.traces")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := float64(time.Millisecond)
	want := map[string]float64{
		"rng":     1200 * ms, // math.pow charges to its nearest caller, rng
		"cache":   250 * ms,  // memmove inside the LRU shift
		"gc":      190 * ms,  // an assist under mem, plus a mark worker
		"json":    60 * ms,   // encoding/json under server
		"mem":     50 * ms,   // a mellow method called by encoding/json
		"joblog":  40 * ms,   // fsync syscall charges to the job log
		"http":    30 * ms,   // net/http with no mellow frame above it
		"runtime": 20 * ms,   // no layered frame at all
		"mellow":  10 * ms,   // the root facade
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1 {
			t.Errorf("%s = %v ns, want %v ns", l, got[l], w)
		}
	}
	for l := range got {
		if _, ok := want[l]; !ok {
			t.Errorf("unexpected layer %q = %v ns", l, got[l])
		}
	}
}

func TestFoldTracesRejectsMalformedValue(t *testing.T) {
	in := "-----------+---\n  lots   main.main\n"
	if _, err := foldTraces(strings.NewReader(in)); err == nil {
		t.Fatal("malformed sample value accepted")
	}
}

func TestLayerOfFrame(t *testing.T) {
	for fn, want := range map[string]string{
		"mellow/internal/cache.(*Cache).find":     "cache",
		"mellow/internal/sim.(*Kernel).peek":      "sim",
		"mellow.Run":                              "mellow",
		"main.(*service).op":                      "bench",
		"encoding/json.Marshal":                   "json",
		"net/http.(*conn).serve":                  "http",
		"net/http/internal.(*chunkedReader).Read": "http",
		"math.pow":        "",
		"runtime.memmove": "",
		"internal/runtime/maps.ctrlGroup.matchEmpty": "",
	} {
		if got := layerOfFrame(fn); got != want {
			t.Errorf("layerOfFrame(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldProfileLive writes a real CPU profile with runtime/pprof and
// folds it through `go tool pprof`, checking the samples land in the
// benchmark's own layer.
func TestFoldProfileLive(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := foldProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range got {
		total += v
	}
	if total == 0 || got["bench"] < total/2 {
		t.Fatalf("fold %v: want most of %v ns in bench", got, total)
	}
}

var sink float64

func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}
