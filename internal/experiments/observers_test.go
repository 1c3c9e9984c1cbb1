package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"mellow/internal/sched"
)

// recorder observes batches the way mellowd and mellowbench do: Plan
// keeps the cells, every cell runs under one Observation, and Done
// keeps each result in its cell's slot.
type recorder struct {
	plans, done int
	cells       []Cell
	ins         []Instrumented
}

func (r *recorder) hooks(ob Observation) Hooks {
	return Hooks{
		Plan: func(cs []Cell) {
			r.plans++
			r.cells, r.ins = cs, make([]Instrumented, len(cs))
		},
		Start: func(int) Observation { return ob },
		Done: func(i int, in Instrumented, _ error) {
			r.done++
			r.ins[i] = in
		},
	}
}

// TestExperimentObservers runs every simulating experiment observed and
// traced, and checks what its hooks see. Each experiment plans one
// batch, so a client's total is constant, and Done reaches that total
// only on its last call, so a client's fraction never hits 1 early.
// Each observed cell delivers exactly one series and one trace; ext6's
// mixes run plain whatever Start asks for, and deliver none.
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
			var r recorder
			o := Options{
				Cfg: tinyConfig(901), Out: io.Discard, Workloads: []string{"stream", "gups"},
				Hooks: r.hooks(Observation{Epoch: 50_000, Trace: true}),
			}
			if err := e.Run(o); err != nil {
				t.Fatal(err)
			}
			total := len(r.cells)
			if r.plans != 1 || total == 0 {
				t.Fatalf("planned %d batches of %d cells, want one non-empty batch", r.plans, total)
			}
			if r.done != total {
				t.Fatalf("Done fired %d times for %d cells", r.done, total)
			}
			want := total
			if e.ID == "ext6" {
				want = 0
			}
			series, traces := 0, 0
			for _, rec := range Records(r.cells, r.ins) {
				if len(rec.Series) > 0 {
					series++
				}
			}
			for _, in := range r.ins {
				if in.Trace != nil {
					traces++
				}
			}
			if series != want || traces != want {
				t.Errorf("%d cells delivered %d series and %d traces, want %d of each", total, series, traces, want)
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
			var r recorder
			var buf bytes.Buffer
			o := Options{Cfg: tinyConfig(911), Out: &buf, Workloads: []string{"stream", "gups"},
				Hooks: r.hooks(Observation{Epoch: 50_000})}
			if err := e.Run(o); err != nil {
				t.Fatal(err)
			}
			rep := Report{ID: e.ID, Title: e.Title, Output: buf.String(), Series: Records(r.cells, r.ins)}
			if len(rep.Series) != want || len(r.cells) != want {
				t.Fatalf("%s: %d records for %d cells, want %d", id, len(rep.Series), len(r.cells), want)
			}
			triples := map[[3]string]bool{}
			for i, rec := range rep.Series {
				c := r.cells[i]
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
