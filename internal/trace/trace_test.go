package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/rng"
)

func TestAllWorkloadsListed(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Fatalf("suite has %d workloads, want 11", len(names))
	}
	want := map[string]bool{
		"leslie3d": true, "GemsFDTD": true, "libquantum": true, "stream": true,
		"hmmer": true, "zeusmp": true, "bwaves": true, "gups": true,
		"milc": true, "mcf": true, "lbm": true,
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected workload %q", n)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("missing workload %q", n)
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("lbm")
	if err != nil || w.Name != "lbm" {
		t.Fatalf("ByName(lbm) = %v, %v", w.Name, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("ByName(nonesuch) should fail")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	for _, w := range All() {
		a, b := w.New(7), w.New(7)
		for i := 0; i < 1000; i++ {
			oa, ob := a.Next(), b.Next()
			if oa != ob {
				t.Fatalf("%s: diverged at op %d: %+v vs %+v", w.Name, i, oa, ob)
			}
		}
	}
}

func TestSeedsChangeStreams(t *testing.T) {
	w, _ := ByName("gups")
	a, b := w.New(1), w.New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next().Addr == b.Next().Addr {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds produced %d/100 identical addresses", same)
	}
}

func TestAddressesWithinPhysicalMemory(t *testing.T) {
	for _, w := range All() {
		g := w.New(3)
		for i := 0; i < 50000; i++ {
			op := g.Next()
			if op.Addr >= 4<<30 {
				t.Fatalf("%s: address %#x outside 4 GB", w.Name, op.Addr)
			}
		}
	}
}

func TestGapMeanAccurate(t *testing.T) {
	g := gapper{src: rng.New(5), mean: 9.18}
	var sum uint64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += uint64(g.next())
	}
	got := float64(sum) / n
	if math.Abs(got-9.18) > 0.05 {
		t.Errorf("gap mean = %v, want 9.18", got)
	}
}

func TestStreamShape(t *testing.T) {
	w, _ := ByName("stream")
	g := w.New(1)
	reads, writes := 0, 0
	for i := 0; i < 3000; i++ {
		op := g.Next()
		if op.Write {
			writes++
		} else {
			reads++
		}
		if op.Dep {
			t.Fatal("stream must not have dependent loads")
		}
	}
	ratio := float64(writes) / float64(reads+writes)
	if ratio < 0.30 || ratio > 0.37 {
		t.Errorf("stream write share = %v, want ~1/3", ratio)
	}
}

func TestLbmWriteHeavy(t *testing.T) {
	w, _ := ByName("lbm")
	g := w.New(1)
	writes := 0
	for i := 0; i < 3000; i++ {
		if g.Next().Write {
			writes++
		}
	}
	if share := float64(writes) / 3000; share < 0.45 {
		t.Errorf("lbm write share = %v, want ~1/2", share)
	}
}

func TestMcfDependentReads(t *testing.T) {
	w, _ := ByName("mcf")
	g := w.New(1)
	deps, writes := 0, 0
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if op.Dep {
			deps++
		}
		if op.Write {
			writes++
			if op.Gap != 0 {
				t.Fatal("mcf RMW write must follow its read immediately")
			}
		}
	}
	if deps < 3000 {
		t.Errorf("mcf dependent loads = %d/5000, want most", deps)
	}
	if writes < 500 || writes > 1500 {
		t.Errorf("mcf writes = %d/5000, want ~20%% of ops", writes)
	}
}

func TestGupsAlwaysRMW(t *testing.T) {
	w, _ := ByName("gups")
	g := w.New(1)
	var lastRead uint64
	sawRead := false
	for i := 0; i < 2000; i++ {
		op := g.Next()
		if op.Write {
			if !sawRead || op.Addr != lastRead {
				t.Fatal("gups write does not match preceding read")
			}
			sawRead = false
		} else {
			lastRead = op.Addr
			sawRead = true
		}
	}
}

func TestStreamSequentialLocality(t *testing.T) {
	// Consecutive accesses to the same array must advance by 8 bytes —
	// seven of eight consecutive touches stay within one line.
	w, _ := ByName("libquantum")
	g := w.New(1)
	sameLine := 0
	var prev [2]uint64 // per alternating array slot
	const n = 8000
	for i := 0; i < n; i++ {
		op := g.Next()
		slot := i % 2
		if prev[slot] != 0 && op.Addr>>6 == prev[slot]>>6 {
			sameLine++
		}
		prev[slot] = op.Addr
	}
	if frac := float64(sameLine) / n; frac < 0.8 {
		t.Errorf("same-line fraction = %v, want ~7/8 (sequential words)", frac)
	}
}

// TestMPKICalibration regenerates Table IV: every workload, run against
// the paper's real cache hierarchy, must land near its published MPKI.
func TestMPKICalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is slow")
	}
	cfg := config.Default()
	const warm = 1_000_000
	const measured = 3_000_000
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			h := cache.NewHierarchy(cfg.Caches, rng.New(99))
			g := w.New(1)
			var instr uint64
			for instr < warm {
				op := g.Next()
				instr += uint64(op.Gap) + 1
				h.Access(op.Addr, op.Write)
			}
			h.ResetStats()
			instr = 0
			for instr < measured {
				op := g.Next()
				instr += uint64(op.Gap) + 1
				h.Access(op.Addr, op.Write)
			}
			mpki := float64(h.Snapshot().LLCMisses) / (float64(instr) / 1000)
			lo, hi := w.TargetMPKI*0.6, w.TargetMPKI*1.5
			if mpki < lo || mpki > hi {
				t.Errorf("MPKI = %.2f, want %.2f (accept %.2f–%.2f)", mpki, w.TargetMPKI, lo, hi)
			} else {
				t.Logf("MPKI = %.2f (target %.2f)", mpki, w.TargetMPKI)
			}
		})
	}
}

// TestWorkloadSharesShapeConcurrently runs many generators of one
// workload at once (under -race): they share its Zipf shape read-only,
// and each still emits the stream a generator of a fresh, unshared
// workload emits for its seed.
func TestWorkloadSharesShapeConcurrently(t *testing.T) {
	for _, name := range []string{"hmmer", "zeusmp"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		const gens, ops = 8, 20_000
		want := make([][]Op, gens)
		for g := range want {
			fresh, err := w.Spec.Workload(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			gen := fresh.New(uint64(g))
			for i := 0; i < ops; i++ {
				want[g] = append(want[g], gen.Next())
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < gens; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				gen := w.New(uint64(g))
				for i := 0; i < ops; i++ {
					if op := gen.Next(); op != want[g][i] {
						t.Errorf("%s seed %d: op %d = %+v, want %+v", name, g, i, op, want[g][i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestWorkloadBuildsShapeOnFirstNew: Spec.Workload computes no Zipf
// shape; the first New builds it once and later generators reuse it.
func TestWorkloadBuildsShapeOnFirstNew(t *testing.T) {
	var mu sync.Mutex
	var built []uint64
	orig := newZipfShape
	newZipfShape = func(n uint64, theta float64) *rng.ZipfShape {
		mu.Lock()
		built = append(built, n)
		mu.Unlock()
		return orig(n, theta)
	}
	defer func() { newZipfShape = orig }()

	sp, err := SpecByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	w, err := sp.Workload("hmmer", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != 0 {
		t.Fatalf("Spec.Workload built %d shapes before any New", len(built))
	}
	w.New(1)
	w.New(2)
	if len(built) != 1 || built[0] != sp.HotBytes/64 {
		t.Fatalf("shapes built after two New calls: %v, want one over %d lines", built, sp.HotBytes/64)
	}
	// A workload without a hot set never builds one.
	gups, err := SpecByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	w, err = gups.Workload("gups", 0)
	if err != nil {
		t.Fatal(err)
	}
	w.New(1)
	if len(built) != 1 {
		t.Fatalf("gups built a Zipf shape: %v", built)
	}
}

// BenchmarkHotSetNext draws hmmer's instruction stream, 99.5% of whose
// accesses go to its Zipf hot set.
func BenchmarkHotSetNext(b *testing.B) {
	w, err := ByName("hmmer")
	if err != nil {
		b.Fatal(err)
	}
	g := w.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += g.Next().Addr
	}
	_ = sink
}

// TestGeneratorDigests pins the first 400k ops of every builtin
// workload at seed 1, and of user specs whose regions are not a
// power-of-two number of lines (the 1 MB stream wraps its arrays inside
// the window), to digests recorded while a stream still took a modulo
// per element where it now steps one wrapped offset.
func TestGeneratorDigests(t *testing.T) {
	user := map[string]Spec{
		"stream-1mb":  {Kind: KindStream, GapMean: 2, ReadArrays: 2, WriteArrays: 1, ArrayBytes: 1 << 20},
		"stream-3mb":  {Kind: KindStream, GapMean: 2, ReadArrays: 1, WriteArrays: 1, ArrayBytes: 3 << 20, HotBytes: 3 << 20, HotProb: 0.3, HotWriteProb: 0.2},
		"random-3mb":  {Kind: KindRandom, GapMean: 5, RegionBytes: 3 << 20, WriteProb: 0.3, HotBytes: 5 << 20, HotProb: 0.4},
		"hotonly-3mb": {Kind: KindHotOnly, GapMean: 2, HotBytes: 3 << 20, HotTheta: 0.8, HotWriteProb: 0.4},
	}
	want := map[string]string{
		"stream-1mb":  "a4318ce59808c34d",
		"stream-3mb":  "1925fd0de7642dd6",
		"random-3mb":  "dc3c2a1a53e42908",
		"hotonly-3mb": "5f61b4faf8436ccf",
		"stream":      "4e3d63b5b34b60a2",
		"lbm":         "4e0fc2d42b7bd5be",
		"libquantum":  "5db5b4b2644fdf15",
		"milc":        "80ec79194469a611",
		"mcf":         "37f41e8314a39a02",
		"gups":        "92b613a3dce1eca5",
		"leslie3d":    "6b8effb549d07a9e",
		"GemsFDTD":    "cec7e5a1d13ea52b",
		"zeusmp":      "1331b7610a5636b2",
		"bwaves":      "cf9ddcbb45555987",
		"hmmer":       "6d5336f52db6f245",
	}
	for name, digest := range want {
		sp, ok := user[name]
		if !ok {
			var err error
			if sp, err = SpecByName(name); err != nil {
				t.Fatal(err)
			}
		}
		w, err := sp.Workload(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		g := w.New(1)
		h := sha256.New()
		var b [14]byte
		for i := 0; i < 400_000; i++ {
			op := g.Next()
			binary.LittleEndian.PutUint64(b[:], op.Addr)
			binary.LittleEndian.PutUint32(b[8:], op.Gap)
			b[12], b[13] = 0, 0
			if op.Write {
				b[12] = 1
			}
			if op.Dep {
				b[13] = 1
			}
			h.Write(b[:])
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != digest {
			t.Errorf("%s: op stream digest %s, want %s", name, got, digest)
		}
	}
}
