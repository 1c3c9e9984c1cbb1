package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mellow/internal/rng"
)

// The legacy closure constructors, verbatim as they stood before the
// declarative Spec refactor. They exist only here: the suite below pins
// every builtin workload's Spec byte-identical to its closure, so the
// refactor cannot drift the instruction streams (and therefore any
// simulation result) by even one op.

// legacyHotSet is the hot-set constructor of the same era: one Zipf
// built per generator over the region's lines.
func legacyHotSet(src *rng.Source, reg region, theta, writeProb float64) *hotSet {
	return &hotSet{
		src:       src,
		reg:       reg,
		zipf:      rng.NewZipf(src.Branch(0x407), reg.lines(), theta),
		writeProb: writeProb,
	}
}

func legacyStream(gapMean float64, nRead, nWrite int, arrayBytes uint64,
	hotBytes uint64, pHot, hotWriteProb float64) func(uint64) Generator {
	return func(seed uint64) Generator {
		src := rng.New(seed)
		lay := newLayout()
		s := &stream{src: src, gap: gapper{src: src.Branch(1), mean: gapMean}}
		for i := 0; i < nRead; i++ {
			s.reads = append(s.reads, lay.alloc(arrayBytes))
		}
		for i := 0; i < nWrite; i++ {
			s.writes = append(s.writes, lay.alloc(arrayBytes))
		}
		if hotBytes > 0 {
			s.hot = legacyHotSet(src.Branch(2), lay.alloc(hotBytes), 0.7, hotWriteProb)
			s.pHot = pHot
		}
		return s
	}
}

func legacyRandom(gapMean float64, regionBytes uint64, dep, rmw bool, wProb float64,
	hotBytes uint64, pHot, hotWriteProb float64) func(uint64) Generator {
	return func(seed uint64) Generator {
		src := rng.New(seed)
		lay := newLayout()
		r := &random{
			src: src, gap: gapper{src: src.Branch(1), mean: gapMean},
			reg: lay.alloc(regionBytes), dep: dep, rmw: rmw, wProb: wProb,
		}
		if hotBytes > 0 {
			r.hot = legacyHotSet(src.Branch(2), lay.alloc(hotBytes), 0.7, hotWriteProb)
			r.pHot = pHot
		}
		return r
	}
}

func legacyHotOnly(gapMean float64, hotBytes uint64, theta, wProb float64) func(uint64) Generator {
	return func(seed uint64) Generator {
		src := rng.New(seed)
		lay := newLayout()
		return &random{
			src: src, gap: gapper{src: src.Branch(1), mean: gapMean},
			reg:  lay.alloc(64 * MB), // cold leak region
			pHot: 0.995,
			hot: &hotSet{
				src:       src.Branch(2),
				reg:       lay.alloc(hotBytes),
				zipf:      rng.NewZipf(src.Branch(3), hotBytes/64, theta),
				writeProb: wProb,
			},
		}
	}
}

// legacyWorkloads is the pre-refactor table, closure for closure.
var legacyWorkloads = map[string]func(uint64) Generator{
	"stream":     legacyStream(9.0, 2, 1, 32*MB, 0, 0, 0),
	"lbm":        legacyStream(3.0, 2, 2, 48*MB, 0, 0, 0),
	"libquantum": legacyStream(3.15, 1, 1, 64*MB, 0, 0, 0),
	"milc":       legacyStream(5.4, 3, 1, 32*MB, 0, 0, 0),
	"mcf":        legacyRandom(16.5, 384*MB, true, true, 0.25, 0, 0, 0),
	"gups":       legacyRandom(110, 1024*MB, false, true, 1.0, 0, 0, 0),
	"leslie3d":   legacyStream(22.4, 4, 2, 12*MB, 1*MB, 0.20, 0.3),
	"GemsFDTD":   legacyStream(7.8, 6, 3, 24*MB, 1*MB, 0.10, 0.3),
	"zeusmp":     legacyStream(27.9, 3, 2, 8*MB, 1*MB, 0.30, 0.3),
	"bwaves":     legacyStream(25.2, 4, 1, 16*MB, 1*MB, 0.15, 0.2),
	"hmmer":      legacyHotOnly(2.5, 1*MB, 0.8, 0.45),
}

// TestSpecMatchesLegacyClosures is the spec↔builtin equivalence pin:
// every Table IV workload × several seeds must produce a byte-identical
// instruction stream from its declarative Spec as from the legacy
// closure it replaced.
func TestSpecMatchesLegacyClosures(t *testing.T) {
	const ops = 50_000
	seeds := []uint64{1, 2, 7, 42, 0xDEADBEEF}
	if len(legacyWorkloads) != len(workloads) {
		t.Fatalf("legacy table has %d workloads, suite has %d", len(legacyWorkloads), len(workloads))
	}
	for _, w := range All() {
		mk, ok := legacyWorkloads[w.Name]
		if !ok {
			t.Fatalf("no legacy closure for %q", w.Name)
		}
		if w.Spec == nil {
			t.Fatalf("%s: builtin workload carries no Spec", w.Name)
		}
		for _, seed := range seeds {
			want, got := mk(seed), w.New(seed)
			for i := 0; i < ops; i++ {
				a, b := want.Next(), got.Next()
				if a != b {
					t.Fatalf("%s seed %d: op %d diverged: closure %+v, spec %+v",
						w.Name, seed, i, a, b)
				}
			}
		}
	}
}

// TestSpecJSONStreamEquivalence pins the full declarative path: a spec
// serialized to JSON and decoded back must still generate the exact
// closure stream — what a scenario file or job request round-trips.
func TestSpecJSONStreamEquivalence(t *testing.T) {
	for _, w := range All() {
		b, err := json.Marshal(w.Spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", w.Name, err)
		}
		var sp Spec
		if err := json.Unmarshal(b, &sp); err != nil {
			t.Fatalf("%s: unmarshal: %v", w.Name, err)
		}
		w2, err := sp.Workload(w.Name, w.TargetMPKI)
		if err != nil {
			t.Fatalf("%s: workload from decoded spec: %v", w.Name, err)
		}
		a, c := w.New(99), w2.New(99)
		for i := 0; i < 10_000; i++ {
			if x, y := a.Next(), c.Next(); x != y {
				t.Fatalf("%s: op %d diverged after JSON round-trip: %+v vs %+v", w.Name, i, x, y)
			}
		}
	}
}

func TestSpecCanonicalJSONStable(t *testing.T) {
	sp := Spec{Kind: KindHotOnly, GapMean: 2.5, HotBytes: 1 * MB, HotTheta: 0.8, HotWriteProb: 0.45}
	a, err := sp.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Defaults made explicit: the sparse and the normalized spellings of
	// the same workload canonicalise — and therefore hash — identically.
	full := Spec{Kind: KindHotOnly, GapMean: 2.5, RegionBytes: 64 * MB,
		HotBytes: 1 * MB, HotProb: 0.995, HotTheta: 0.8, HotWriteProb: 0.45}
	b, err := full.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical JSON differs:\n%s\n%s", a, b)
	}
	h1, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := full.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || len(h1) != 64 {
		t.Fatalf("hashes differ or malformed: %s vs %s", h1, h2)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{},                             // no kind
		{Kind: "zipfian"},              // unknown kind
		{Kind: KindStream},             // no arrays, no gap
		{Kind: KindStream, GapMean: 1}, // no arrays
		{Kind: KindStream, GapMean: 1, ReadArrays: 1},                                 // no array bytes
		{Kind: KindStream, GapMean: 1, ReadArrays: 1, ArrayBytes: MB, RegionBytes: 1}, // foreign field
		{Kind: KindStream, GapMean: 1, ReadArrays: 1, ArrayBytes: MB, HotProb: 0.5},   // hot fields without hot_bytes
		{Kind: KindRandom, GapMean: 1},                                                // no region
		{Kind: KindRandom, GapMean: 1, RegionBytes: MB, WriteProb: 1.5},               // bad prob
		{Kind: KindRandom, GapMean: 1, RegionBytes: MB, ArrayBytes: MB},               // foreign field
		{Kind: KindHotOnly, GapMean: 1},                                               // no hot set
		{Kind: KindHotOnly, GapMean: 1, HotBytes: MB, HotTheta: 1.2, HotProb: 0.9},    // theta out of range
		{Kind: KindReplay},                            // no data
		{Kind: KindReplay, Path: "x.trace"},           // unresolved path
		{Kind: KindReplay, Data: "nonsense"},          // unparseable
		{Kind: KindReplay, Data: "0 40 R", Dep: true}, // foreign field
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("case %d (%+v): want error, got nil", i, sp)
		}
	}
	for _, w := range All() {
		if err := w.Spec.Validate(); err != nil {
			t.Errorf("builtin %s: %v", w.Name, err)
		}
	}
}

// TestSpecValidateLayout: a synthetic spec whose regions do not fit the
// 4 GB layout fails validation with the aligned total, instead of
// passing and panicking in New.
func TestSpecValidateLayout(t *testing.T) {
	bad := []struct {
		sp   Spec
		want string
	}{
		{Spec{Kind: KindHotOnly, GapMean: 1, HotBytes: 8 << 30, HotTheta: 0.8}, "needs 8320 MB"},
		{Spec{Kind: KindStream, GapMean: 1, ReadArrays: 1, ArrayBytes: 5 << 30}, "needs 5184 MB"},
		{Spec{Kind: KindRandom, GapMean: 1, RegionBytes: 4032*MB + 1}, "needs 4097 MB"},
		{Spec{Kind: KindRandom, GapMean: 1, RegionBytes: 4000 * MB, HotBytes: 33 * MB, HotProb: 0.5}, "needs 4097 MB"},
		{Spec{Kind: KindStream, GapMean: 1, ReadArrays: 3, WriteArrays: 1, ArrayBytes: 1<<64 - 1}, "needs 70368744177728 MB"},
		{Spec{Kind: KindStream, GapMean: 1, ReadArrays: 1 << 40, WriteArrays: 1, ArrayBytes: 1 << 63}, "more than 2^64 MB"},
	}
	for i, tc := range bad {
		err := tc.sp.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d (%+v): got %v, want an error naming %q", i, tc.sp, err, tc.want)
		}
	}
	// Exactly full is fine, and New must then build without panicking.
	for _, sp := range []Spec{
		{Kind: KindRandom, GapMean: 1, RegionBytes: 4032 * MB},
		{Kind: KindStream, GapMean: 1, ReadArrays: 2, WriteArrays: 1, ArrayBytes: 1344 * MB},
		{Kind: KindHotOnly, GapMean: 1, RegionBytes: 1, HotBytes: 4030*MB + 1, HotTheta: 0.5},
	} {
		w, err := sp.Workload("full", 0)
		if err != nil {
			t.Fatalf("%+v: %v", sp, err)
		}
		w.New(1).Next()
	}
}

// TestReplaySpecRoundTrip pins the mellowtrace -export → replay-spec
// path: recording a builtin generator and replaying the file through a
// replay Spec reproduces the recorded stream cyclically, exactly as
// FromReader does.
func TestReplaySpecRoundTrip(t *testing.T) {
	const n = 2_000
	w, err := ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Record(&buf, w.New(7), n); err != nil { // what mellowtrace -export writes
		t.Fatal(err)
	}
	exported := buf.String()

	// Path-referenced spec resolves to the same canonical identity as the
	// inline spelling: content, not filename, is the hash.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "gups.trace"), []byte(exported), 0o644); err != nil {
		t.Fatal(err)
	}
	byPath, err := Spec{Kind: KindReplay, Path: "gups.trace"}.Resolve(dir)
	if err != nil {
		t.Fatal(err)
	}
	if byPath.Path != "" || byPath.Data != exported {
		t.Fatalf("Resolve did not inline the file (path %q, %d data bytes)", byPath.Path, len(byPath.Data))
	}
	inline := Spec{Kind: KindReplay, Data: exported}
	h1, err := byPath.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := inline.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("path-resolved and inline replay specs hash differently: %s vs %s", h1, h2)
	}

	rw, err := inline.Workload("gups-replay", w.TargetMPKI)
	if err != nil {
		t.Fatal(err)
	}
	orig := w.New(7)
	gen := rw.New(12345) // replay ignores the seed
	var first []Op
	for i := 0; i < n; i++ {
		op := gen.Next()
		first = append(first, op)
		want := orig.Next()
		// The textual format drops Dep on writes (meaningless there); any
		// other field must survive export→replay exactly.
		want.Dep = want.Dep && !want.Write
		if op != want {
			t.Fatalf("op %d: replay %+v, original %+v", i, op, want)
		}
	}
	for i := 0; i < n; i++ { // cyclic: second pass repeats the first
		if op := gen.Next(); op != first[i] {
			t.Fatalf("cycle op %d: got %+v, want %+v", i, op, first[i])
		}
	}

	// FromReader and the replay spec agree op for op.
	fw, err := FromReader("gups-file", strings.NewReader(exported), 0)
	if err != nil {
		t.Fatal(err)
	}
	fg, sg := fw.New(0), rw.New(0)
	for i := 0; i < n+17; i++ {
		if a, b := fg.Next(), sg.Next(); a != b {
			t.Fatalf("op %d: FromReader %+v, spec %+v", i, a, b)
		}
	}
}

func TestSpecByName(t *testing.T) {
	sp, err := SpecByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != KindRandom || !sp.Dep || !sp.RMW {
		t.Fatalf("mcf spec unexpected: %+v", sp)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("want error for unknown name")
	}
}
