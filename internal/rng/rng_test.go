package rng

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("zero-seeded source produced duplicates: %d unique of 100", len(seen))
	}
}

func TestBranchDecorrelated(t *testing.T) {
	parent := New(7)
	a := parent.Branch(1)
	b := parent.Branch(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("branched streams collided %d/1000 times", same)
	}
}

func TestUintnRange(t *testing.T) {
	s := New(3)
	f := func(n uint64) bool {
		n = n%1000 + 1
		v := s.Uintn(n)
		return v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUintnUniform(t *testing.T) {
	s := New(11)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Uintn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d: %d draws, want ~%d (±10%%)", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / 100000
	if mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(9)
	hits := 0
	for i := 0; i < 100000; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	if hits < 24000 || hits > 26000 {
		t.Errorf("Bool(0.25) hit %d/100000, want ~25000", hits)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(21)
	z := NewZipf(s, 1000, 0.9)
	counts := map[uint64]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("Zipf value %d out of range", v)
		}
		counts[v]++
	}
	// Item 0 must be the clear hot spot and the top 10 items must carry a
	// disproportionate share of the mass.
	top10 := 0
	for i := uint64(0); i < 10; i++ {
		top10 += counts[i]
	}
	if counts[0] < counts[500]*10 {
		t.Errorf("Zipf not skewed: count[0]=%d count[500]=%d", counts[0], counts[500])
	}
	if float64(top10)/draws < 0.25 {
		t.Errorf("top-10 share = %v, want heavy head (>0.25)", float64(top10)/draws)
	}
}

func TestZipfLargeN(t *testing.T) {
	s := New(33)
	z := NewZipf(s, 1<<30, 0.6)
	for i := 0; i < 10000; i++ {
		if v := z.Next(); v >= 1<<30 {
			t.Fatalf("Zipf value %d out of range for n=2^30", v)
		}
	}
}

func TestZipfPanicsOnBadArgs(t *testing.T) {
	s := New(1)
	for _, tc := range []struct {
		n     uint64
		theta float64
	}{{0, 0.5}, {10, 0}, {10, 1}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", tc.n, tc.theta)
				}
			}()
			NewZipf(s, tc.n, tc.theta)
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

// refZipf is the sampler as it stood before the bucket table and the
// shared shape: the plain Knuth/Gray formula, both pows per draw. The
// threshold-driven Zipf must return exactly what it returns for every
// mantissa.
type refZipf struct {
	n                        uint64
	theta, alpha, zetan, eta float64
}

func newRefZipf(n uint64, theta float64) refZipf {
	z := refZipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - powF(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

// next is the old Next for the draw whose Float64 mantissa is m.
func (z refZipf) next(m uint64) uint64 {
	u := float64(m) / (1 << 53)
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+powF(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * powF(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// zipfShapes are the builtin workloads' hot-set shapes (16,384 lines at
// theta 0.7 and 0.8) plus edge shapes: degenerate domains, the largest
// domain with thresholds, the smallest without, and a huge one.
var zipfShapes = []struct {
	n     uint64
	theta float64
}{
	{16384, 0.7}, {16384, 0.8},
	{1, 0.5}, {2, 0.7}, {3, 0.8}, {1000, 0.9},
	{maxTableN, 0.7}, {maxTableN + 1, 0.7}, {1 << 30, 0.6},
	{16384, 0.01}, {16384, 0.99}, {4096, 0.5},
}

// firstAtLeast returns the smallest mantissa whose pow base is at least
// x (1<<53 when none is).
func firstAtLeast(z *ZipfShape, x float64) uint64 {
	return uint64(sort.Search(1<<53, func(m int) bool { return z.base(float64(m)/(1<<53)) >= x }))
}

// edgeMantissas returns the mantissas at and one either side of the
// places draw decides edge k differently: both ends of its margin
// window, the edge itself, and where the reference first draws past k.
func edgeMantissas(z *ZipfShape, ref refZipf, k int) []uint64 {
	e := z.edge[k]
	lo, hi := firstAtLeast(z, e*(1-tableMargin)), firstAtLeast(z, e*(1+tableMargin))
	flip := lo + uint64(sort.Search(int(hi-lo), func(i int) bool { return ref.next(lo+uint64(i)) > uint64(k) }))
	var ms []uint64
	for _, c := range []uint64{lo, hi, firstAtLeast(z, e), flip} {
		for _, m := range []uint64{c - 1, c, c + 1} {
			if m < 1<<53 {
				ms = append(ms, m)
			}
		}
	}
	return ms
}

// TestZipfTableExact checks, for every shape, every bucket's first and
// last mantissa and the mantissas around every edge against the
// reference formula, and that each table entry is the index its
// bucket's first mantissa surely reaches.
func TestZipfTableExact(t *testing.T) {
	for _, sh := range zipfShapes {
		z, ref := NewZipfShape(sh.n, sh.theta), newRefZipf(sh.n, sh.theta)
		if (z.table != nil) != (sh.n <= maxTableN) || (z.edge != nil) != (z.table != nil) {
			t.Errorf("n=%d: table built = %v, edges = %v, want %v", sh.n, z.table != nil, z.edge != nil, sh.n <= maxTableN)
		}
		check := func(m uint64, where string) {
			t.Helper()
			if got, want := z.draw(m), ref.next(m); got != want {
				t.Fatalf("n=%d theta=%v mantissa %#x (%s): got %d, reference %d", sh.n, sh.theta, m, where, got, want)
			}
		}
		for b := uint64(0); b < 1<<tableBits; b++ {
			check(b<<tableShift, fmt.Sprintf("bucket %d", b))
			check((b+1)<<tableShift-1, fmt.Sprintf("bucket %d", b))
			if z.table == nil {
				continue
			}
			x, k := z.base(float64(b<<tableShift)/(1<<53)), int(z.table[b])
			if (k > 0 && x < z.edge[k-1]*(1+tableMargin)) || x >= z.edge[k]*(1+tableMargin) {
				t.Fatalf("n=%d theta=%v bucket %d: table %d, not the count of edges its base %v passes by the margin",
					sh.n, sh.theta, b, k, x)
			}
		}
		for k := 0; k+1 < len(z.edge); k++ {
			for _, m := range edgeMantissas(z, ref, k) {
				check(m, fmt.Sprintf("edge %d", k))
			}
		}
	}
}

// inWindow reports whether draw runs the formula for mantissa m: past
// the head items, with a base within the margin of an edge.
func inWindow(z *ZipfShape, m uint64) bool {
	u := float64(m) / (1 << 53)
	if u*z.zetan < z.head {
		return false
	}
	x := z.base(u)
	k := sort.Search(len(z.edge), func(k int) bool { return x < z.edge[k]*(1+tableMargin) })
	return x >= z.edge[k]*(1-tableMargin)
}

// TestZipfFormulaFallbacks bounds the share of the builtin shapes'
// draws that still evaluate the pow.
func TestZipfFormulaFallbacks(t *testing.T) {
	const draws = 1 << 20
	for _, theta := range []float64{0.7, 0.8} {
		z, src := NewZipfShape(16384, theta), New(5)
		fallbacks := 0
		for range draws {
			if inWindow(z, src.Uint64()>>11) {
				fallbacks++
			}
		}
		t.Logf("theta=%v: %d of %d draws ran the formula", theta, fallbacks, draws)
		if fallbacks > draws/10_000 {
			t.Errorf("theta=%v: %d of %d draws ran the formula, want at most 1e-4", theta, fallbacks, draws)
		}
	}
}

// TestZipfShapeHeap bounds what building a shape allocates: the start
// table, n edges and the shape itself.
func TestZipfShapeHeap(t *testing.T) {
	for _, n := range []uint64{16384, 4096, maxTableN} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		z := NewZipfShape(n, 0.8)
		runtime.ReadMemStats(&after)
		limit := uint64(len(z.table))*2 + 8*(n+1) + 128
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("n=%d: building the shape allocated %d B, want at most %d", n, got, limit)
		}
	}
}

// FuzzZipfDraw draws one mantissa, and the mantissas around the edges
// next to its index, from an arbitrary shape and wants the reference's
// index for each. n is folded into [1, 2·maxTableN], so shapes with
// thresholds and formula-only shapes past the table's limit are both
// fuzzed.
func FuzzZipfDraw(f *testing.F) {
	f.Add(uint64(16384), 0.8, uint64(1)<<52)
	f.Add(uint64(16384), 0.7, uint64(0x1fffffffffffff))
	f.Add(uint64(3), 0.99, uint64(12345))
	f.Add(uint64(maxTableN+1), 0.5, uint64(1)<<51)
	f.Fuzz(func(t *testing.T, n uint64, theta float64, m uint64) {
		if !(theta > 0 && theta < 1) {
			t.Skip()
		}
		n = n%(2*maxTableN) + 1
		m &= 1<<53 - 1
		z, ref := NewZipfShape(n, theta), newRefZipf(n, theta)
		ms := []uint64{m}
		if k := int(z.draw(m)); z.edge != nil {
			for _, j := range []int{k - 1, k} {
				if j >= 0 && j+1 < len(z.edge) {
					ms = append(ms, edgeMantissas(z, ref, j)...)
				}
			}
		}
		for _, m := range ms {
			if got, want := z.draw(m), ref.next(m); got != want {
				t.Fatalf("n=%d theta=%v mantissa %#x: got %d, reference %d", n, theta, m, got, want)
			}
		}
	})
}

// TestZipfMatchesReference draws seeded streams through Next and the
// reference side by side: same values, one Uint64 per draw.
func TestZipfMatchesReference(t *testing.T) {
	draws := 1 << 20
	if testing.Short() {
		draws = 1 << 16
	}
	for i, sh := range zipfShapes {
		ref := newRefZipf(sh.n, sh.theta)
		src, twin := New(uint64(100+i)), New(uint64(100+i))
		z := NewZipf(src, sh.n, sh.theta)
		for d := 0; d < draws; d++ {
			got, want := z.Next(), ref.next(twin.Uint64()>>11)
			if got != want {
				t.Fatalf("n=%d theta=%v draw %d: got %d, reference %d", sh.n, sh.theta, d, got, want)
			}
		}
		if src.Uint64() != twin.Uint64() {
			t.Fatalf("n=%d theta=%v: Next consumed other than one Uint64 per draw", sh.n, sh.theta)
		}
	}
}

// TestZipfShapeShared: samplers of one shape on separate streams, run
// concurrently (under -race), each match a sampler with its own shape.
func TestZipfShapeShared(t *testing.T) {
	shape := NewZipfShape(16384, 0.8)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed uint64) {
			a, b := shape.New(New(seed)), NewZipf(New(seed), 16384, 0.8)
			for i := 0; i < 20000; i++ {
				if x, y := a.Next(), b.Next(); x != y {
					done <- fmt.Errorf("seed %d draw %d: shared shape %d, own shape %d", seed, i, x, y)
					return
				}
			}
			done <- nil
		}(uint64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkZipfNext draws from hmmer's hot-set shape (16,384 lines,
// theta 0.8).
func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(New(1), 16384, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += z.Next()
	}
	_ = sink
}
