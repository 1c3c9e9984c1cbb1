package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mellow/internal/config"
	"mellow/internal/trace"
)

func validScenario() *Scenario {
	return &Scenario{
		Name:      "t",
		Workloads: []WorkloadRef{{Name: "gups"}},
		Policies:  []string{"Norm", "BE-Mellow+SC"},
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"missing name", func(s *Scenario) { s.Name = "" }, "missing name"},
		{"name with slash", func(s *Scenario) { s.Name = "a/b" }, "spaces or slashes"},
		{"name with space", func(s *Scenario) { s.Name = "a b" }, "spaces or slashes"},
		{"no workloads", func(s *Scenario) { s.Workloads = nil }, "at least one workload"},
		{"unnamed workload", func(s *Scenario) { s.Workloads[0].Name = "" }, "missing name"},
		{"unknown builtin", func(s *Scenario) { s.Workloads[0].Name = "nope" }, "not builtin"},
		{"duplicate workload", func(s *Scenario) {
			s.Workloads = append(s.Workloads, WorkloadRef{Name: "gups"})
		}, "duplicate workload"},
		{"bad inline spec", func(s *Scenario) {
			s.Workloads[0].Spec = &trace.Spec{Kind: "bogus"}
		}, "unknown kind"},
		{"no policies", func(s *Scenario) { s.Policies = nil }, "at least one policy"},
		{"bad policy", func(s *Scenario) { s.Policies = []string{"Quick"} }, "unknown base policy"},
		{"duplicate policy", func(s *Scenario) { s.Policies = []string{"Norm", "Norm"} }, "duplicate policy"},
		{"unknown leveler", func(s *Scenario) { s.Levelers = []string{"rotato"} }, "unknown leveler"},
		{"duplicate leveler", func(s *Scenario) { s.Levelers = []string{"wolfram", "wolfram"} }, "duplicate leveler"},
	}
	for _, tc := range cases {
		s := validScenario()
		tc.mut(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := validScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

// Sparse and fully explicit spellings of the same scenario must share
// one content address — the canonical form makes defaults explicit.
func TestHashSparseVsExplicit(t *testing.T) {
	sparse := &Scenario{
		Name: "t",
		Workloads: []WorkloadRef{{Name: "hot", Spec: &trace.Spec{
			Kind: trace.KindHotOnly, GapMean: 2.5, HotBytes: 1 << 20, HotWriteProb: 0.5, HotTheta: 0.8,
		}}},
		Policies:  []string{"Norm"},
		Overrides: &Overrides{},
	}
	explicit := &Scenario{
		Name: "t",
		Workloads: []WorkloadRef{{Name: "hot", Spec: &trace.Spec{
			Kind: trace.KindHotOnly, GapMean: 2.5, RegionBytes: 64 << 20,
			HotBytes: 1 << 20, HotProb: 0.995, HotWriteProb: 0.5, HotTheta: 0.8,
		}}},
		Policies: []string{"Norm"},
	}
	h1, err := sparse.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("sparse hash %s != explicit hash %s", h1, h2)
	}
	h3, err := validScenario().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("different scenarios share a hash")
	}
}

func TestEffectiveConfigOverrides(t *testing.T) {
	base := config.Default()
	u64 := func(v uint64) *uint64 { return &v }
	i := func(v int) *int { return &v }
	f := func(v float64) *float64 { return &v }
	str := func(v string) *string { return &v }

	s := validScenario()
	s.Overrides = &Overrides{
		Seed: u64(9), Warmup: u64(100), Detailed: u64(200),
		Banks: i(8), ExpoFactor: f(3), Cell: str("CellA"),
		Scheduler: str("frfcfs"), LLCBytes: i(1 << 20),
		DrainLow: i(8), DrainHigh: i(16),
	}
	cfg, err := s.EffectiveConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Run.Seed != 9 || cfg.Run.WarmupInstructions != 100 || cfg.Run.DetailedInstructions != 200 {
		t.Errorf("run overrides not applied: %+v", cfg.Run)
	}
	if cfg.Memory.Banks() != 8 || cfg.Memory.Device.ExpoFactor != 3 {
		t.Errorf("memory overrides not applied: banks %d expo %v", cfg.Memory.Banks(), cfg.Memory.Device.ExpoFactor)
	}
	if cfg.Memory.Cell.String() != "CellA" || cfg.Memory.Scheduler != "frfcfs" {
		t.Errorf("cell/scheduler overrides not applied")
	}
	if cfg.Caches.L3.SizeBytes != 1<<20 || cfg.Memory.DrainLow != 8 || cfg.Memory.DrainHigh != 16 {
		t.Errorf("cache/drain overrides not applied")
	}
	// The base is untouched.
	if base.Run.Seed == 9 || base.Memory.Banks() == 8 {
		t.Fatal("EffectiveConfig mutated the base")
	}

	for _, bad := range []*Overrides{
		{Banks: i(7)},
		{Cell: str("CellZ")},
		{Scheduler: str("elevator")},
		{DrainHigh: i(99)},
		{LLCBytes: i(3 << 20)}, // not a power of two
	} {
		s.Overrides = bad
		if _, err := s.EffectiveConfig(base); err == nil {
			t.Errorf("override %+v accepted, want error", bad)
		}
	}
}

// RunKey covers both the document and the base configuration.
func TestRunKeyCoversBase(t *testing.T) {
	s := validScenario()
	base := config.Default()
	k1, err := s.RunKey(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Run.Seed = 999
	k2, err := s.RunKey(base)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("run key ignores the base configuration")
	}
}

func writeScenario(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, "test-"+name+".json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadConfigStrict: a misspelled field inside a scenario's config
// fails the load like one at the top level.
func TestLoadConfigStrict(t *testing.T) {
	p := writeScenario(t, t.TempDir(), "misspelled",
		`{"name":"misspelled","workloads":[{"name":"gups"}],"policies":["Norm"],"config":{"Run":{"Sed":3}}}`)
	if _, err := Load(p); err == nil || !strings.Contains(err.Error(), `unknown field "Sed"`) {
		t.Errorf("misspelled config field: err = %v", err)
	}
}

func TestLoadStrictAndLoadDir(t *testing.T) {
	dir := t.TempDir()

	// Unknown fields are rejected outright.
	p := writeScenario(t, dir, "unknown", `{"name":"unknown","workloads":[{"name":"gups"}],"policies":["Norm"],"bogus":1}`)
	if _, err := Load(p); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown field: err = %v", err)
	}
	// Trailing data is rejected.
	p = writeScenario(t, dir, "trailing", `{"name":"trailing","workloads":[{"name":"gups"}],"policies":["Norm"]} {}`)
	if _, err := Load(p); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing data: err = %v", err)
	}
	// The declared name must match the file name.
	writeScenario(t, dir, "alpha", `{"name":"beta","workloads":[{"name":"gups"}],"policies":["Norm"]}`)
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Errorf("name mismatch: err = %v", err)
	}

	// A clean directory loads sorted and validated; duplicates across
	// subdirectories are rejected.
	dir2 := t.TempDir()
	writeScenario(t, dir2, "b", `{"name":"b","workloads":[{"name":"gups"}],"policies":["Norm"]}`)
	sub := filepath.Join(dir2, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	writeScenario(t, sub, "a", `{"name":"a","workloads":[{"name":"stream"}],"policies":["Slow"]}`)
	entries, err := LoadDir(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Scenario.Name != "a" || entries[1].Scenario.Name != "b" {
		t.Fatalf("entries sorted by path: %q then %q", entries[0].Path, entries[1].Path)
	}
	writeScenario(t, sub, "b", `{"name":"b","workloads":[{"name":"gups"}],"policies":["Norm"]}`)
	if _, err := LoadDir(dir2); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate name: err = %v", err)
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty corpus accepted")
	}
}

// Load inlines a replay spec's trace file so the scenario is
// self-contained: content, not paths, enters the canonical form.
func TestLoadInlinesReplay(t *testing.T) {
	dir := t.TempDir()
	traceBody := "10 1000 W\n5 2000 R\n"
	if err := os.WriteFile(filepath.Join(dir, "t.trace"), []byte(traceBody), 0o644); err != nil {
		t.Fatal(err)
	}
	p := writeScenario(t, dir, "rep",
		`{"name":"rep","workloads":[{"name":"r","spec":{"kind":"replay","path":"t.trace"}}],"policies":["Norm"]}`)
	s, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	sp := s.Workloads[0].Spec
	if sp.Path != "" || sp.Data != traceBody {
		t.Fatalf("replay spec not inlined: path %q, data %q", sp.Path, sp.Data)
	}

	// The same content inlined directly hashes identically: replay
	// identity is the records, not where they came from.
	inline := &Scenario{
		Name:      "rep",
		Workloads: []WorkloadRef{{Name: "r", Spec: &trace.Spec{Kind: trace.KindReplay, Data: traceBody}}},
		Policies:  []string{"Norm"},
	}
	h1, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := inline.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("path-resolved hash %s != inline hash %s", h1, h2)
	}
}

func TestCompareFileAndUpdate(t *testing.T) {
	dir := t.TempDir()
	golden := ExpectedPath(filepath.Join(dir, "test-x.json"))
	res := &Result{Scenario: "x", Key: strings.Repeat("ab", 32), Cells: []CellResult{}}

	// Missing golden: the error teaches the -update workflow.
	err := res.CompareFile(golden)
	if err == nil || !strings.Contains(err.Error(), "-update") {
		t.Fatalf("missing golden err = %v", err)
	}
	if err := res.WriteFile(golden); err != nil {
		t.Fatal(err)
	}
	if err := res.CompareFile(golden); err != nil {
		t.Fatalf("fresh golden differs: %v", err)
	}
	// Any drift reports the first differing line.
	res2 := *res
	res2.Key = strings.Repeat("cd", 32)
	err = res2.CompareFile(golden)
	if err == nil || !strings.Contains(err.Error(), "line") {
		t.Fatalf("drift err = %v", err)
	}

	// Encoded documents end in exactly one newline and are stable.
	b1, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := res.Encode()
	if string(b1) != string(b2) || !strings.HasSuffix(string(b1), "}\n") {
		t.Fatalf("Encode not stable or badly terminated: %q", b1)
	}
}

// The committed corpus itself must load: every file named after its
// scenario, every document valid against the default base.
func TestCommittedCorpusLoads(t *testing.T) {
	entries, err := LoadDir(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 24 {
		t.Fatalf("corpus has %d scenarios, want >= 24", len(entries))
	}
	base := config.Default()
	for _, e := range entries {
		if _, err := e.Scenario.EffectiveConfig(base); err != nil {
			t.Errorf("%s: %v", e.Path, err)
		}
		if _, err := os.Stat(ExpectedPath(e.Path)); err != nil {
			t.Errorf("%s has no committed golden: %v", e.Path, err)
		}
	}
}
