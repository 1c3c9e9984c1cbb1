package experiments

import (
	"io"
	"testing"
)

// TestExperimentObservers runs every simulating experiment observed and
// traced, and checks what its observers see. Progress reports one
// constant total and reaches it only on the last call, so a client's
// fraction never hits 1 early. Each observed cell delivers exactly one
// series and one trace record. ext3's ablations and ext6's mixes are
// plain runs: they report progress but deliver no records.
func TestExperimentObservers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep is slow")
	}
	ResetCache()
	static := map[string]bool{"tab4": true, "tab6": true, "fig1": true, "ext5": true}
	plain := map[string]bool{"ext3": true, "ext6": true}
	for _, e := range All() {
		if static[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			// Observer calls are serialised on the experiment's goroutine.
			var progress [][2]int
			var series, traces int
			o := Options{
				Cfg: tinyConfig(901), Out: io.Discard, Workloads: []string{"stream", "gups"},
				Epoch: 50_000, Trace: true,
				OnProgress: func(done, total int) { progress = append(progress, [2]int{done, total}) },
				OnSeries:   func(SeriesRecord) { series++ },
				OnTrace:    func(TraceRecord) { traces++ },
			}
			if err := e.Run(o); err != nil {
				t.Fatal(err)
			}
			if len(progress) == 0 {
				t.Fatal("no progress reported")
			}
			total := progress[0][1]
			for i, p := range progress {
				if p != [2]int{i + 1, total} {
					t.Fatalf("progress call %d reported %d/%d, want %d/%d", i, p[0], p[1], i+1, total)
				}
			}
			if len(progress) != total {
				t.Fatalf("progress stopped at %d/%d", len(progress), total)
			}
			want := total
			if plain[e.ID] {
				want = 0
			}
			if series != want || traces != want {
				t.Errorf("%d cells delivered %d series and %d traces, want %d of each", total, series, traces, want)
			}
		})
	}
}
