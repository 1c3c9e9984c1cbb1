package cache

import "mellow/internal/rng"

// Profiler is the Eager Mellow Writes useless-line detector of §IV-B1.
//
// One hit counter per LRU stack position (shared across all sets) plus a
// single miss counter are updated on every LLC request. Every T_sample
// the profiler finds the *eager LRU position*: the lowest stack position
// such that the positions from it to the bottom of the stack together
// received less than THRESHOLD_RATIO (1/32) of all requests. Dirty lines
// at or beyond that position are considered useless and may be eagerly
// written back. Counters then reset for the next period.
//
// Storage cost matches the paper's §IV-E estimate: one counter per way
// plus a miss counter and a cycle counter — 360 bits for a 16-way LLC.
type Profiler struct {
	hit       []uint64
	miss      uint64
	ratio     float64
	eagerPos  int // positions >= eagerPos are useless
	rotations uint64
}

// NewProfiler creates a profiler for an LLC with the given associativity
// and threshold ratio. Before the first rotation no position is useless
// (eagerPos == ways): the scheme has no evidence yet.
func NewProfiler(ways int, ratio float64) *Profiler {
	return &Profiler{hit: make([]uint64, ways), ratio: ratio, eagerPos: ways}
}

// Rotate closes a sampling period: recompute the eager position from the
// counters, then reset them.
func (p *Profiler) Rotate() {
	total := p.miss
	for _, h := range p.hit {
		total += h
	}
	n := len(p.hit)
	if total == 0 {
		// No traffic this period: no evidence, no eager write-backs.
		p.eagerPos = n
	} else {
		bound := p.ratio * float64(total)
		cum := uint64(0)
		pos := n
		for i := n - 1; i >= 0; i-- {
			if float64(cum+p.hit[i]) >= bound {
				break
			}
			cum += p.hit[i]
			pos = i
		}
		p.eagerPos = pos
	}
	for i := range p.hit {
		p.hit[i] = 0
	}
	p.miss = 0
	p.rotations++
}

// Counters returns a copy of the in-period hit counters and the miss
// count (for tests and debugging dumps).
func (p *Profiler) Counters() (hits []uint64, misses uint64) {
	return append([]uint64(nil), p.hit...), p.miss
}

// EagerCandidate picks an eager write-back candidate from the LLC per
// Figure 8: choose a random set; among its dirty lines at useless LRU
// positions take the least recently used; mark it clean (it is *not*
// evicted) and return its line address.
func (c *Cache) EagerCandidate(src *rng.Source) (addr uint64, ok bool) {
	p := c.profiler
	if p == nil {
		panic("cache: EagerCandidate on a level without a profiler")
	}
	if p.eagerPos >= c.ways {
		return 0, false
	}
	si := int(src.Uintn(uint64(c.nsets)))
	s := &c.sets[si]
	if s.dirty == 0 {
		return 0, false
	}
	for pos := c.ways - 1; pos >= p.eagerPos; pos-- {
		if w := wayAt(s.order, pos); s.dirty&(1<<w) != 0 {
			s.dirty &^= 1 << w
			s.eager |= 1 << w
			return c.tags[si*c.ways+w] >> 1, true
		}
	}
	return 0, false
}

// AttachProfiler makes this cache level the LLC: demand accesses update
// the LRU-position counters and EagerCandidate becomes available.
func (c *Cache) AttachProfiler(ratio float64) *Profiler {
	c.profiler = NewProfiler(c.ways, ratio)
	return c.profiler
}

// Profiler returns the attached profiler, or nil.
func (c *Cache) Profiler() *Profiler { return c.profiler }
