// Package rng provides the deterministic pseudo-random number generator
// used by the workload generators and by stochastic microarchitectural
// choices (e.g. the LLC picking a random set for eager write-back
// candidates, §IV-B1 of the paper).
//
// A dedicated generator — rather than math/rand — keeps every simulation
// bit-for-bit reproducible across Go releases and lets each component own
// an independent stream derived from the run seed.
package rng

import (
	"math"
	"math/bits"
)

// Source is an xorshift128+ generator. The zero value is invalid; use New.
type Source struct {
	s0, s1 uint64
}

// New returns a Source seeded from seed. Any seed, including 0, yields a
// valid non-degenerate state (seeds are passed through splitmix64).
func New(seed uint64) *Source {
	var s Source
	s.s0 = splitmix64(&seed)
	s.s1 = splitmix64(&seed)
	if s.s0 == 0 && s.s1 == 0 {
		s.s1 = 1
	}
	return &s
}

// splitmix64 advances *x and returns the next splitmix64 output. It is the
// standard seeding routine recommended for xorshift-family generators.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	x, y := s.s0, s.s1
	s.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	s.s1 = x
	return x + y
}

// Branch derives an independent child stream. Children created with
// distinct labels from the same parent state are decorrelated.
func (s *Source) Branch(label uint64) *Source {
	seed := s.Uint64() ^ (label * 0x9e3779b97f4a7c15)
	return New(seed)
}

// Uintn returns a uniform value in [0, n). n must be > 0.
func (s *Source) Uintn(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uintn(0)")
	}
	// Multiply-shift mapping (Lemire). The tiny bias is irrelevant for
	// workload synthesis.
	hi, _ := bits.Mul64(s.Uint64(), n)
	return hi
}

// Intn returns a uniform int in [0, n).
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uintn(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// ZipfShape is the seed-independent part of a Zipf-like distribution
// over [0, n) with exponent theta in (0, 1): the normalisation constants
// of the classic Knuth/Gray approximate inverse CDF used by YCSB-style
// generators (item 0 is the hottest), plus the index thresholds that
// answer almost every draw without evaluating the formula. A shape is
// immutable once built, so any number of samplers, on any number of
// goroutines, may share one.
type ZipfShape struct {
	n     uint64
	alpha float64
	zetan float64
	eta   float64
	head  float64 // 1 + 0.5^theta: u*zetan below it draws item 1
	// edge[k] is the pow base ((k+1)/n)^(1/alpha) at which the
	// formula's scaled value reaches k+1, so a base below it draws at
	// most k; edge[n-1] is +Inf. table maps the top tableBits bits of a
	// draw's 53-bit mantissa to the index the bucket's first mantissa
	// surely reaches: the count of edges it passes by the margin. Both
	// are nil when n > maxTableN.
	edge  []float64
	table *[1 << tableBits]uint16
}

const (
	tableBits  = 16
	tableShift = 53 - tableBits // mantissa bits below the bucket index
	maxTableN  = 1 << 16        // the largest n whose indices fit a uint16
	// tableMargin is how far past a threshold, relatively, a pow base
	// must sit to decide its index without the formula. math.Pow is
	// accurate to a few ulps (~1e-15 relative), far below this margin,
	// even raised to alpha.
	tableMargin = 1e-9
)

// NewZipfShape precomputes the distribution over [0, n) with skew theta
// (0 < theta < 1; larger is more skewed).
func NewZipfShape(n uint64, theta float64) *ZipfShape {
	if n == 0 {
		panic("rng: Zipf shape with n == 0")
	}
	if theta <= 0 || theta >= 1 {
		panic("rng: Zipf shape theta must be in (0,1)")
	}
	z := &ZipfShape{n: n, head: 1.0 + powF(0.5, theta)}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - powF(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	if n <= maxTableN {
		z.buildThresholds()
	}
	return z
}

// buildThresholds fills edge and the start table. The pow base x is
// monotone in the mantissa (each rounded operation of eta*u-eta+1 is,
// and eta > 0 wherever the pow branch is reachable), so every mantissa
// of a bucket has at least the base of its first and passes at least
// the edges that first one passed.
func (z *ZipfShape) buildThresholds() {
	n := z.n
	z.edge = make([]float64, n)
	for k := range n - 1 {
		z.edge[k] = powF(float64(k+1)/float64(n), 1/z.alpha)
	}
	z.edge[n-1] = math.Inf(1)
	z.table = new([1 << tableBits]uint16)
	k := 0
	for b := range z.table {
		x := z.base(float64(uint64(b)<<tableShift) / (1 << 53))
		for x >= z.edge[k]*(1+tableMargin) {
			k++
		}
		z.table[b] = uint16(k)
	}
}

func zeta(n uint64, theta float64) float64 {
	// For large n this loop would be slow; cap the exact sum and
	// approximate the tail with the integral of x^-theta.
	const exact = 1 << 16
	sum := 0.0
	m := n
	if m > exact {
		m = exact
	}
	for i := uint64(1); i <= m; i++ {
		sum += powF(1.0/float64(i), theta)
	}
	if n > m {
		// ∫_m^n x^-theta dx = (n^(1-theta) - m^(1-theta)) / (1-theta)
		sum += (powF(float64(n), 1-theta) - powF(float64(m), 1-theta)) / (1 - theta)
	}
	return sum
}

func powF(base, exp float64) float64 { return math.Pow(base, exp) }

// base is the formula's pow base for the uniform draw u.
func (z *ZipfShape) base(u float64) float64 { return z.eta*u - z.eta + 1 }

// New returns a sampler of this shape drawing from src.
func (z *ZipfShape) New(src *Source) *Zipf { return &Zipf{src: src, shape: z} }

// Zipf draws from a ZipfShape with its own random stream.
type Zipf struct {
	src   *Source
	shape *ZipfShape
}

// NewZipf constructs a Zipf generator over [0, n) with skew theta
// (0 < theta < 1; larger is more skewed). Callers drawing many samplers
// of one distribution should build its ZipfShape once and share it.
func NewZipf(src *Source, n uint64, theta float64) *Zipf {
	return NewZipfShape(n, theta).New(src)
}

// Next returns the next Zipf-distributed value in [0, n). It consumes
// exactly one Uint64 and returns exactly what the formula gives for
// Float64's value of it; the thresholds only skip the pow.
func (z *Zipf) Next() uint64 { return z.shape.draw(z.src.Uint64() >> 11) }

// draw maps a 53-bit mantissa, the one Float64 scales into [0, 1), to
// its index. Past the two head items it starts at the bucket's table
// entry and steps k while the base is surely past edge k; a base surely
// short of edge k draws k. Only a base within the margin of an edge, or
// a shape without edges, runs the pow.
func (z *ZipfShape) draw(m uint64) uint64 {
	u := float64(m) / (1 << 53)
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.head {
		return 1
	}
	x := z.base(u)
	if edge := z.edge; edge != nil {
		k := int(z.table[m>>tableShift])
		for x >= edge[k]*(1+tableMargin) {
			k++
		}
		if x < edge[k]*(1-tableMargin) {
			return uint64(k)
		}
	}
	return min(uint64(float64(z.n)*powF(x, z.alpha)), z.n-1)
}
