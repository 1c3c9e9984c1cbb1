package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"

	"mellow/internal/sched"
)

// observe runs every cell of a batch under ob, as mellowd and
// mellowbench do, and counts RunCells' Done calls into *done (they come
// one at a time).
func observe(ob Observation, done *int) Hooks {
	return Hooks{
		Start: func(int) Observation { return ob },
		Done:  func(int, Instrumented, error) { *done++ },
	}
}

// TestExperimentObservers runs every simulating experiment observed and
// traced, as one batch of its declared cells, and checks what its hooks
// see: Done fires once per cell, and each observed cell, ext6's mixes
// included, delivers exactly one series and one trace, its records
// named by the cell's label.
func TestExperimentObservers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep is slow")
	}
	ResetCache()
	static := map[string]bool{"tab4": true, "tab6": true, "fig1": true, "ext5": true}
	for _, e := range All() {
		if static[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			done := 0
			o := Options{Cfg: tinyConfig(901), Out: io.Discard, Workloads: []string{"stream", "gups"}}
			cells, ins, err := runExperiment(context.Background(), e, o, observe(Observation{Epoch: 50_000, Trace: true}, &done))
			if err != nil {
				t.Fatal(err)
			}
			total := len(cells)
			if total == 0 || done != total {
				t.Fatalf("Done fired %d times for %d cells, want one call per cell of a non-empty batch", done, total)
			}
			series, traces := 0, 0
			for i, rec := range Records(cells, ins) {
				if len(rec.Series) > 0 && rec.Workload == cells[i].Label() {
					series++
				}
			}
			for i, in := range ins {
				if in.Trace != nil && in.Trace.Workload == cells[i].Label() {
					traces++
				}
			}
			if series != total || traces != total {
				t.Errorf("%d cells delivered %d labelled series and %d labelled traces, want %d of each",
					total, series, traces, total)
			}
		})
	}
}

// TestObservedReportsDeterministic runs fig17 and ext8 observed twice,
// from a cold memo and with cells finishing in parallel. The two encoded
// reports must be byte-equal, list their records in cell order, and
// label every record with a distinct (variant, workload, policy) — a
// variant sweep repeats each (workload, policy) once per variant.
func TestObservedReportsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep is slow")
	}
	old := sched.Default().Stats().Budget
	sched.Default().SetBudget(2)
	defer sched.Default().SetBudget(old)
	for id, want := range map[string]int{"fig17": 30, "ext8": 24} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var first []byte
		for run := 0; run < 2; run++ {
			ResetCache()
			var buf bytes.Buffer
			done := 0
			o := Options{Cfg: tinyConfig(911), Out: &buf, Workloads: []string{"stream", "gups"}}
			cells, ins, err := runExperiment(context.Background(), e, o, observe(Observation{Epoch: 50_000}, &done))
			if err != nil {
				t.Fatal(err)
			}
			rep := Report{ID: e.ID, Title: e.Title, Output: buf.String(), Series: Records(cells, ins)}
			if len(rep.Series) != want || len(cells) != want {
				t.Fatalf("%s: %d records for %d cells, want %d", id, len(rep.Series), len(cells), want)
			}
			triples := map[[3]string]bool{}
			for i, rec := range rep.Series {
				c := cells[i]
				if rec.Variant != c.Variant || rec.Workload != c.Workload.Name || rec.Policy != c.Spec.Name {
					t.Fatalf("%s: record %d is %s/%s/%s, cell %d is %s/%s/%s", id, i,
						rec.Variant, rec.Workload, rec.Policy, i, c.Variant, c.Workload.Name, c.Spec.Name)
				}
				if len(rec.Series) == 0 {
					t.Errorf("%s: record %d carries no samples", id, i)
				}
				triples[[3]string{rec.Variant, rec.Workload, rec.Policy}] = true
			}
			if len(triples) != want {
				t.Errorf("%s: %d distinct (variant, workload, policy) labels among %d records", id, len(triples), want)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				first = b
			} else if !bytes.Equal(b, first) {
				t.Errorf("%s: two observed runs encoded different reports", id)
			}
		}
	}
}
