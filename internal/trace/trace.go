// Package trace synthesises the paper's workloads. SPEC CPU2006 binaries
// and gem5 checkpoints are proprietary/unavailable, so each of the nine
// SPEC benchmarks plus GUPS and stream (Table IV) is replaced by a
// parametric generator that reproduces the traits the Mellow Writes
// mechanisms are sensitive to:
//
//   - LLC miss rate (calibrated to Table IV MPKI; verified by test),
//   - the read/write mix of memory traffic,
//   - spatial pattern (streaming, strided stencil, random, pointer
//     chase, random-update) and therefore bank/row-buffer behaviour,
//   - dependence (pointer chases serialise; streams overlap),
//   - a resident hot set that exercises the LLC LRU stack profiler.
//
// See DESIGN.md §4 for the substitution rationale.
package trace

import (
	"math"

	"mellow/internal/rng"
)

// Op is one trace item: Gap non-memory instructions followed by one
// memory access. The access itself counts as one instruction, so an Op
// represents Gap+1 instructions.
type Op struct {
	// Gap is the number of non-memory instructions preceding the access.
	Gap uint32
	// Addr is the byte address accessed.
	Addr uint64
	// Write marks a store; loads are reads.
	Write bool
	// Dep marks a load whose address depends on the previous load
	// (pointer chasing): it cannot issue until that load completes.
	Dep bool
}

// Generator produces an infinite instruction/access stream.
type Generator interface {
	Next() Op
}

// gapper draws instruction gaps with a fractional mean: uniform jitter in
// [0.5, 1.5)×mean with an accumulator so the long-run mean is exact.
type gapper struct {
	src  *rng.Source
	mean float64
	acc  float64
}

func (g *gapper) next() uint32 {
	g.acc += g.mean * (0.5 + g.src.Float64())
	n := math.Floor(g.acc)
	g.acc -= n
	return uint32(n)
}

// region is a contiguous array of memory, addressed in 64-byte lines
// or, by a stream, in 8-byte elements.
type region struct {
	base  uint64
	bytes uint64
}

// lineAddr is the address of line l, which must be below lines().
func (r region) lineAddr(l uint64) uint64 { return r.base + l*64 }
func (r region) lines() uint64            { return r.bytes / 64 }

// layout hands out non-overlapping regions within the 4 GB physical
// space, leaving the first 64 MB unused and aligning to 1 MB.
type layout struct{ cursor uint64 }

// Layout geometry: regions align to layoutAlign bytes (1 MB); the
// unused prefix and the physical space every workload's regions must
// fit in (Spec.Validate checks it) are counted in those units.
const (
	layoutAlign   = 1 << 20
	layoutBaseMB  = 64
	layoutLimitMB = 4 << 10
)

func newLayout() *layout { return &layout{cursor: layoutBaseMB * layoutAlign} }

// alignedMB is a region's size in 1 MB units after alignment; it cannot
// overflow, unlike rounding the byte count up.
func alignedMB(bytes uint64) uint64 {
	mb := bytes / layoutAlign
	if bytes%layoutAlign != 0 {
		mb++
	}
	return mb
}

func (a *layout) alloc(bytes uint64) region {
	bytes = alignedMB(bytes) * layoutAlign
	r := region{base: a.cursor, bytes: bytes}
	a.cursor += bytes
	if a.cursor > layoutLimitMB*layoutAlign {
		panic("trace: workload layout exceeds 4 GB physical memory")
	}
	return r
}

// hotSet models a cache-resident (or nearly so) reuse region with a
// Zipf-skewed line popularity, providing the LLC hit-position signal the
// eager profiler feeds on.
type hotSet struct {
	src       *rng.Source
	reg       region
	zipf      *rng.Zipf
	writeProb float64
}

// newHotSet draws the region's line popularity from shape, whose
// domain must be reg.lines().
func newHotSet(src *rng.Source, reg region, shape *rng.ZipfShape, writeProb float64) *hotSet {
	return &hotSet{
		src:       src,
		reg:       reg,
		zipf:      shape.New(src.Branch(0x407)),
		writeProb: writeProb,
	}
}

func (h *hotSet) access() (addr uint64, write bool) {
	l := h.zipf.Next()
	// Spread the popular lines across the address space so they do not
	// all collide in the same cache sets: multiply by a large odd
	// constant modulo the line count (a bijection).
	l = (l * 0x9E3779B1) % h.reg.lines()
	return h.reg.lineAddr(l), h.src.Bool(h.writeProb)
}

// stream walks a set of arrays element-by-element (8-byte words),
// emitting one access per array per element — the shape of stream/lbm/
// milc/libquantum and, with more arrays plus a hot set, of the stencil
// codes. writeProb applies to arrays marked maybeWrite (used by
// libquantum's conditional updates).
type stream struct {
	src    *rng.Source
	gap    gapper
	reads  []region
	writes []region
	// off is the current element's byte offset within each array,
	// wrapped at the arrays' size: every array of a stream has the
	// same size, so one offset addresses them all.
	off  uint64
	idx  int // next position in the combined read+write sweep
	hot  *hotSet
	pHot float64
}

func (s *stream) Next() Op {
	g := s.gap.next()
	if s.hot != nil && s.src.Bool(s.pHot) {
		addr, w := s.hot.access()
		return Op{Gap: g, Addr: addr, Write: w}
	}
	var op Op
	var r region
	if s.idx < len(s.reads) {
		r = s.reads[s.idx]
		op = Op{Gap: g, Addr: r.base + s.off}
	} else {
		r = s.writes[s.idx-len(s.reads)]
		op = Op{Gap: g, Addr: r.base + s.off, Write: true}
	}
	s.idx++
	if s.idx == len(s.reads)+len(s.writes) {
		s.idx = 0
		if s.off += 8; s.off == r.bytes {
			s.off = 0
		}
	}
	return op
}

// random emits accesses to uniformly random lines of a region —
// optionally dependent (pointer chase), optionally read-modify-write
// (the write to the just-read line follows immediately), with a given
// write probability for the follow-up or standalone store.
type random struct {
	src     *rng.Source
	gap     gapper
	reg     region
	dep     bool
	rmw     bool
	wProb   float64
	pending uint64 // pending RMW write address
	hasPend bool
	hot     *hotSet
	pHot    float64
}

func (r *random) Next() Op {
	if r.hasPend {
		r.hasPend = false
		return Op{Gap: 0, Addr: r.pending, Write: true}
	}
	g := r.gap.next()
	if r.hot != nil && r.src.Bool(r.pHot) {
		addr, w := r.hot.access()
		return Op{Gap: g, Addr: addr, Write: w}
	}
	addr := r.reg.lineAddr(r.src.Uintn(r.reg.lines()))
	if r.rmw && r.src.Bool(r.wProb) {
		r.pending = addr
		r.hasPend = true
		return Op{Gap: g, Addr: addr, Dep: r.dep}
	}
	if !r.rmw && r.src.Bool(r.wProb) {
		return Op{Gap: g, Addr: addr, Write: true}
	}
	return Op{Gap: g, Addr: addr, Dep: r.dep}
}
