// Package cache implements the three-level cache hierarchy of Table I:
// set-associative true-LRU caches with write-back/write-allocate policy,
// an inclusive LLC with back-invalidation, and the LLC-side machinery of
// Eager Mellow Writes (§IV-B): per-LRU-position hit counters, the
// periodic useless-position profiler of Figure 7, and dirty-candidate
// selection (Figure 8). Lines stay in the way they were filled into;
// each set's LRU order is one packed word of way indices, at most 16
// ways per set, and a lookup compares one-byte fingerprints eight ways
// at a time before it compares a full tag.
//
// A level's arrays are recycled: Hierarchy.Release hands them to a pool
// keyed by the level's geometry, and the next New of that geometry
// resets and reuses them instead of allocating. Only whoever built a
// hierarchy releases it, once, after the run's outputs are built.
package cache

import (
	"fmt"
	"math/bits"
	"sync"

	"mellow/internal/config"
)

// Cache is one cache level. A line stays in the way it was filled into;
// each set keeps its LRU order separately, as one word of 4-bit way
// indices in which nibble p is the way at stack position p (0 = MRU).
// A hit finds its stack position — which the LLC profiler counts
// (§IV-B1) — with a SWAR search of that word, and moving a line to MRU
// is two masks, a shift and an OR, so no line data moves on a touch or
// a fill. The word holds 16 ways, which is why config rejects a wider
// level. The level's storage is three flat arrays — tags, recency
// clocks and per-set state — taken from the geometry's pool by New and
// handed back by release.
//
// A tag is the full line address (byte address >> 6) shifted left over a
// valid bit, so an invalid way (tag 0) never matches and reverse mapping
// for eager write-back is free. Each set also holds one fingerprint byte
// per way: 0 for an invalid way, a top bit over seven hash bits of the
// line address for a valid one. find loads eight of them in one word,
// flags the ways whose byte equals the address's with a SWAR zero-byte
// search, and compares the full tag of each flagged way in way order.
// The dirty and eager-clean bits of the ways live in per-set masks next
// to the order word.
type Cache struct {
	cfg     config.Cache
	ways    int
	nsets   int
	setMask uint64

	tags []uint64 // line address<<1 | 1 per valid way, 0 per invalid way
	last []uint64 // access-clock value at last demand use, per way
	sets []set

	arrays *arrays // the pooled storage tags, last and sets alias

	hits     uint64
	misses   uint64
	touches  uint64    // monotone logical clock for decay prediction
	profiler *Profiler // non-nil on the LLC only
}

// set is one set's recency and line state. An invalidated line leaves a
// hole: its way keeps its stack position until a fill takes it.
type set struct {
	order uint64 // nibble p = way at LRU stack position p
	dirty uint16 // ways holding data memory has not seen
	eager uint16 // ways cleaned by an eager write-back, not re-dirtied yet
	holes uint8  // invalid ways

	// fp holds way w's fingerprint in byte w%8 of word w/8.
	fp [config.MaxCacheWays / 8]uint64
}

// SWAR constants: a 1 and a top bit in every nibble, and in every byte.
const (
	nibbleOnes = 0x1111111111111111
	nibbleTops = 0x8888888888888888
	byteOnes   = 0x0101010101010101
	byteTops   = 0x8080808080808080
)

// fingerprint is a valid line's fingerprint byte: a top bit, so that it
// never equals an invalid way's 0, over the top seven bits of a
// multiplicative hash of the whole line address, which mixes in the bits
// above the set index that tell a set's lines apart.
func fingerprint(addr uint64) uint64 { return 0x80 | addr*0x9e3779b97f4a7c15>>57 }

// setFP stores f as way w's fingerprint byte.
func (s *set) setFP(w int, f uint64) {
	sh := 8 * uint(w&7)
	s.fp[w>>3] = s.fp[w>>3]&^(0xff<<sh) | f<<sh
}

// arrays is one level's storage, the unit the pool recycles.
type arrays struct {
	tags, last []uint64
	sets       []set
}

// geometry keys the pools: levels with equal set and way counts can
// share storage.
type geometry struct{ sets, ways int }

var (
	poolsMu sync.Mutex
	pools   = map[geometry]*sync.Pool{}
)

// poolFor returns the pool of arrays shaped for g, creating it on first
// use.
func poolFor(g geometry) *sync.Pool {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	p := pools[g]
	if p == nil {
		p = &sync.Pool{New: func() any {
			return &arrays{
				tags: make([]uint64, g.sets*g.ways),
				last: make([]uint64, g.sets*g.ways),
				sets: make([]set, g.sets),
			}
		}}
		pools[g] = p
	}
	return p
}

// New builds a cache level from its configuration, on arrays another
// level of the same geometry released or on fresh ones; either way the
// level starts empty, exactly as if newly allocated. It panics on more
// than config.MaxCacheWays ways, which Config.Validate rejects.
func New(cfg config.Cache) *Cache {
	if cfg.Ways > config.MaxCacheWays {
		panic(fmt.Sprintf("cache: %d ways exceed %d", cfg.Ways, config.MaxCacheWays))
	}
	nsets := cfg.Sets()
	a := poolFor(geometry{nsets, cfg.Ways}).Get().(*arrays)
	clear(a.tags)
	clear(a.last)
	var identity uint64 // way p at stack position p
	for w := cfg.Ways - 1; w >= 0; w-- {
		identity = identity<<4 | uint64(w)
	}
	for i := range a.sets {
		a.sets[i] = set{order: identity, holes: uint8(cfg.Ways)}
	}
	return &Cache{
		cfg:     cfg,
		ways:    cfg.Ways,
		nsets:   nsets,
		setMask: uint64(nsets - 1),
		tags:    a.tags,
		last:    a.last,
		sets:    a.sets,
		arrays:  a,
	}
}

// release hands the level's arrays back to its pool and drops its own
// references, so any later access panics instead of reading arrays
// another level may now own. The counters stay readable. A second
// release panics.
func (c *Cache) release() {
	if c.arrays == nil {
		panic("cache: level released twice")
	}
	poolFor(geometry{c.nsets, c.ways}).Put(c.arrays)
	c.arrays, c.tags, c.last, c.sets = nil, nil, nil, nil
}

// locate returns the index of the set holding addr and its first way.
func (c *Cache) locate(addr uint64) (si, base int) {
	si = int(addr & c.setMask)
	return si, si * c.ways
}

// find returns the way holding addr in set s, whose first way is base,
// or -1. This is the hottest path in the simulator: it reads the set's
// two fingerprint words and no tag unless a fingerprint matches, and
// leaves the tag compares to match. XORed with the address's
// fingerprint in every byte, a fingerprint word reads 0 in each way
// whose byte matches. The borrow trick flags every zero byte
// and can flag a byte above a true zero, never below one. A byte past
// the level's ways is 0, XORs to a byte with its top bit set and is
// never flagged, so both words are searched whatever the associativity.
func (c *Cache) find(s *set, base int, addr uint64) int {
	key := fingerprint(addr) * byteOnes
	x0, x1 := s.fp[0]^key, s.fp[1]^key
	m0, m1 := (x0-byteOnes)&^x0&byteTops, (x1-byteOnes)&^x1&byteTops
	if m0|m1 == 0 {
		return -1
	}
	return c.match(base, addr<<1|1, m0, m1)
}

// match compares tag with the full tag of each way flagged in m0 (ways
// 0-7) and m1 (ways 8-15), in way order, and returns the way holding it
// or -1.
func (c *Cache) match(base int, tag, m0, m1 uint64) int {
	for ; m0 != 0; m0 &= m0 - 1 {
		if w := bits.TrailingZeros64(m0) >> 3; c.tags[base+w] == tag {
			return w
		}
	}
	for ; m1 != 0; m1 &= m1 - 1 {
		if w := 8 + bits.TrailingZeros64(m1)>>3; c.tags[base+w] == tag {
			return w
		}
	}
	return -1
}

// wayAt returns the way at stack position p of order.
func wayAt(order uint64, p int) int { return int(order >> (4 * p) & 0xf) }

// position returns the stack position of way w in order: the lowest
// zero nibble of order XOR w-in-every-nibble. The borrow trick can flag
// a nibble above a true zero but never below one, so the lowest flag is
// exact. Nibbles above the associativity are 0, but way 0 sits below.
func position(order uint64, w int) int {
	x := order ^ uint64(w)*nibbleOnes
	return bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleTops) >> 2
}

// toMRU moves way w, at stack position p of order, to MRU: positions
// below p move down one, positions above p stay.
func toMRU(order uint64, p, w int) uint64 {
	below := uint64(1)<<(4*p) - 1
	return order&^(below<<4|0xf) | (order&below)<<4 | uint64(w)
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Config returns the level's configuration.
func (c *Cache) Config() config.Cache { return c.cfg }

// Hits and Misses return demand access counts since the last ResetStats.
func (c *Cache) Hits() uint64   { return c.hits }
func (c *Cache) Misses() uint64 { return c.misses }

// lookup performs a demand access. On a hit the line moves to MRU and a
// write dirties it.
func (c *Cache) lookup(addr uint64, write bool) bool {
	si, base := c.locate(addr)
	s := &c.sets[si]
	w := c.find(s, base, addr)
	if w < 0 {
		c.misses++
		if c.profiler != nil {
			c.profiler.miss++
		}
		return false
	}
	c.hits++
	p := position(s.order, w)
	if c.profiler != nil {
		c.profiler.hit[p]++
	}
	s.order = toMRU(s.order, p, w)
	c.touches++
	c.last[base+w] = c.touches
	if write {
		s.dirty |= 1 << w
		s.eager &^= 1 << w
	}
	return true
}

// install allocates a line (after a fill from the next level or an
// incoming write-back from the previous one) and returns the victim, if
// any valid line was displaced. A fill takes the invalid way closest to
// LRU; a full set gives up its LRU way.
func (c *Cache) install(addr uint64, dirty bool) (victimAddr uint64, victimValid, victimDirty bool) {
	c.touches++
	si, base := c.locate(addr)
	s := &c.sets[si]
	p := c.ways - 1
	w := wayAt(s.order, p)
	if s.holes > 0 {
		for c.tags[base+w] != 0 {
			p--
			w = wayAt(s.order, p)
		}
		s.holes--
	} else {
		victimAddr, victimValid, victimDirty = c.tags[base+w]>>1, true, s.dirty&(1<<w) != 0
	}
	c.tags[base+w] = addr<<1 | 1
	s.setFP(w, fingerprint(addr))
	c.last[base+w] = c.touches
	s.dirty &^= 1 << w
	if dirty {
		s.dirty |= 1 << w
	}
	s.eager &^= 1 << w
	s.order = toMRU(s.order, p, w)
	return victimAddr, victimValid, victimDirty
}

// mergeWriteback handles a dirty line arriving from the level above: on
// hit the existing copy is dirtied (without promoting to MRU — a
// write-back is not a demand use); on miss the caller must install.
// wasEagerClean reports that the copy had been cleaned by an eager
// write-back, which the merge has now wasted (§VI-D).
func (c *Cache) mergeWriteback(addr uint64) (hit, wasEagerClean bool) {
	si, base := c.locate(addr)
	s := &c.sets[si]
	w := c.find(s, base, addr)
	if w < 0 {
		return false, false
	}
	wasEagerClean = s.eager&(1<<w) != 0
	s.dirty |= 1 << w
	s.eager &^= 1 << w
	return true, wasEagerClean
}

// invalidate removes addr if present, reporting whether the dropped copy
// was dirty (the caller merges that into the outgoing write-back). The
// order word is left alone: the hole keeps the line's stack position
// until a fill takes it.
func (c *Cache) invalidate(addr uint64) (dirty bool) {
	si, base := c.locate(addr)
	s := &c.sets[si]
	w := c.find(s, base, addr)
	if w < 0 {
		return false
	}
	dirty = s.dirty&(1<<w) != 0
	c.tags[base+w] = 0
	s.setFP(w, 0)
	s.dirty &^= 1 << w
	s.eager &^= 1 << w
	s.holes++
	return dirty
}

// contains reports whether addr is cached.
func (c *Cache) contains(addr uint64) bool {
	si, base := c.locate(addr)
	return c.find(&c.sets[si], base, addr) >= 0
}

// ResetStats zeroes the demand counters (end of warmup). Profiler counts
// are left alone: the profiler follows its own sampling periods.
func (c *Cache) ResetStats() {
	c.hits, c.misses = 0, 0
}

func (c *Cache) String() string {
	return fmt.Sprintf("cache{%dKB %d-way, %d sets}", c.cfg.SizeBytes>>10, c.cfg.Ways, c.nsets)
}
