package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mellow/internal/config"
)

// quickOpts shrinks run lengths so every experiment finishes fast; the
// suite is restricted to three representative workloads.
func quickOpts(buf *bytes.Buffer) Options {
	cfg := config.Default()
	cfg.Run.WarmupInstructions = 500_000
	cfg.Run.DetailedInstructions = 1_500_000
	return Options{
		Cfg:       cfg,
		Out:       buf,
		Workloads: []string{"stream", "lbm", "gups"},
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.render == nil {
			t.Errorf("incomplete experiment: %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		ids[e.ID] = true
	}
	want := []string{"tab4", "tab6", "fig1", "fig2", "fig3", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"ext1", "ext2", "ext3", "ext4", "ext5", "ext6", "ext7", "ext8", "claims"}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
	if len(ids) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(ids), len(want))
	}
}

// TestDeclaredCells checks every experiment's declaration on quickOpts:
// the static tables declare no cells, every other experiment some, and
// no two cells share a (variant, policy, workload) triple — a repeat
// would silently overwrite its twin's Sweep entry.
func TestDeclaredCells(t *testing.T) {
	static := map[string]bool{"tab4": true, "tab6": true, "fig1": true, "ext5": true}
	for _, e := range All() {
		cells, err := e.Cells(quickOpts(nil))
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if static[e.ID] != (len(cells) == 0) {
			t.Errorf("%s declares %d cells", e.ID, len(cells))
		}
		seen := map[[3]string]bool{}
		for _, c := range cells {
			k := [3]string{c.Variant, c.Spec.Name, c.Label()}
			if seen[k] {
				t.Errorf("%s declares cell %q twice", e.ID, k)
			}
			seen[k] = true
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig11")
	if err != nil || e.ID != "fig11" {
		t.Fatalf("ByID(fig11) = %v, %v", e.ID, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("ByID(fig99) should fail")
	}
}

func TestTable6Static(t *testing.T) {
	var buf bytes.Buffer
	if err := renderTable6(context.Background(), quickOpts(&buf), Sweep{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"CellA", "CellE", "1503.0", "402.4", "667.8"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table VI output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Static(t *testing.T) {
	var buf bytes.Buffer
	if err := renderFig1(context.Background(), quickOpts(&buf), Sweep{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 3x pulse at Expo=2 must show 4.5e7.
	if !strings.Contains(out, "4.5e+07") {
		t.Errorf("Figure 1 output missing 4.5e+07 endurance:\n%s", out)
	}
}

func TestEvaluationSweepFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep is slow")
	}
	ResetCache()
	var buf bytes.Buffer
	o := quickOpts(&buf)
	// Figures 10–16 share one sweep; run them all and sanity-check rows.
	for _, id := range []string{"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := runExperiment(context.Background(), e, o, Hooks{}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"BE-Mellow+SC+WQ", "stream", "lbm", "gups", "geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q", want)
		}
	}
	// The sweep cache must have been populated: 3 workloads × 9 policies.
	n := CacheSnapshot().Entries
	if n < 27 {
		t.Errorf("run cache holds %d results, want >= 27", n)
	}
}

func TestTable4Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation is slow")
	}
	var buf bytes.Buffer
	o := quickOpts(&buf)
	o.Workloads = []string{"stream"}
	if err := renderTable4(context.Background(), o, Sweep{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "12.28") {
		t.Errorf("Table IV missing paper MPKI column:\n%s", buf.String())
	}
}

func TestFig18Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation is slow")
	}
	ResetCache()
	runGolden(t, quickOpts(nil), "fig18")
}

func TestRunCacheMemoises(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation is slow")
	}
	ResetCache()
	var buf bytes.Buffer
	o := quickOpts(&buf)
	o.Workloads = []string{"stream"}
	fig3, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runExperiment(context.Background(), fig3, o, Hooks{}); err != nil {
		t.Fatal(err)
	}
	first := CacheSnapshot().Entries
	if _, _, err := runExperiment(context.Background(), fig3, o, Hooks{}); err != nil {
		t.Fatal(err)
	}
	after := CacheSnapshot()
	if first == 0 || after.Entries != first {
		t.Errorf("cache sizes %d -> %d; second run should reuse", first, after.Entries)
	}
	if after.Hits == 0 {
		t.Error("second run recorded no cache hits")
	}
}

func TestExtensionExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation is slow")
	}
	ResetCache()
	o := quickOpts(nil)
	o.Workloads = []string{"stream", "gups"}
	for _, id := range []string{"ext1", "ext2", "ext3", "ext4", "ext5", "ext6", "ext7", "ext8", "claims"} {
		runGolden(t, o, id)
	}
}

// TestPaperArtifactGoldens pins the paper artifacts no other golden
// covers. Figures 10–16 declare the claims sweep's cells, so after
// TestExtensionExperimentsRun they are memo hits.
func TestPaperArtifactGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep is slow")
	}
	o := quickOpts(nil)
	o.Workloads = []string{"stream", "gups"}
	for _, id := range []string{"tab4", "tab6", "fig1", "fig3", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16"} {
		runGolden(t, o, id)
	}
}

func TestFig2AndFig19Run(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep is slow")
	}
	ResetCache()
	o := quickOpts(nil)
	o.Workloads = []string{"lbm", "gups"}
	for _, id := range []string{"fig2", "fig17", "fig19"} {
		runGolden(t, o, id)
	}
}

func TestClaimsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep is slow")
	}
	var buf bytes.Buffer
	o := quickOpts(&buf)
	e, err := ByID("claims")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runExperiment(context.Background(), e, o, Hooks{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"C1", "C10", "total:", "2.58x"} {
		if !strings.Contains(out, want) {
			t.Errorf("claims output missing %q", want)
		}
	}
}

func TestExt6Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation is slow")
	}
	var buf bytes.Buffer
	o := quickOpts(&buf)
	e, err := ByID("ext6")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runExperiment(context.Background(), e, o, Hooks{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lbm+mcf") {
		t.Errorf("ext6 output missing mix label:\n%s", buf.String())
	}
}

// TestStaticRenderersStopOnCancel wants the two static tables that
// compute their rows while rendering (Table IV's cache walk and ext5's
// leveling runs) to stop with their context's error once it expires
// part-way, not render the whole table.
func TestStaticRenderersStopOnCancel(t *testing.T) {
	for _, id := range []string{"tab4", "ext5"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		var buf bytes.Buffer
		start := time.Now()
		err = e.Render(ctx, quickOpts(&buf), nil, nil)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || buf.Len() != 0 {
			t.Errorf("%s: Render = %v with %d bytes written, want the deadline error and nothing", id, err, buf.Len())
		}
		if took > 2*time.Second {
			t.Errorf("%s: Render took %v to notice its deadline", id, took)
		}
	}
}
