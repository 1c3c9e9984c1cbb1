package cache

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"mellow/internal/config"
	"mellow/internal/rng"
)

// This file keeps the stack-shift LRU the packed order word replaced, as
// a test-only model for the differential test. Lines are stored in LRU
// stack order: slot set*ways+i holds the line at stack position i, so a
// touch or a fill shifts the set's array stripes down by one.

const (
	refValid      = 1 << iota
	refDirty      // holds data memory has not seen
	refEagerClean // cleaned by an eager mellow write-back, not re-dirtied yet
)

type refCache struct {
	ways    int
	nsets   int
	setMask uint64

	addrs []uint64
	last  []uint64
	flags []uint8

	hits, misses, touches uint64
	profiler              *Profiler
}

func newRefCache(cfg config.Cache) *refCache {
	nsets := cfg.Sets()
	n := nsets * cfg.Ways
	return &refCache{
		ways:    cfg.Ways,
		nsets:   nsets,
		setMask: uint64(nsets - 1),
		addrs:   make([]uint64, n),
		last:    make([]uint64, n),
		flags:   make([]uint8, n),
	}
}

func (c *refCache) base(addr uint64) int { return int(addr&c.setMask) * c.ways }

func (c *refCache) find(base int, addr uint64) int {
	for i := 0; i < c.ways; i++ {
		if c.addrs[base+i] == addr && c.flags[base+i]&refValid != 0 {
			return i
		}
	}
	return -1
}

// shiftIn pushes positions [0,i) of the set at base down one and writes
// the line at MRU.
func (c *refCache) shiftIn(base, i int, addr, last uint64, flags uint8) {
	copy(c.addrs[base+1:base+i+1], c.addrs[base:base+i])
	copy(c.last[base+1:base+i+1], c.last[base:base+i])
	copy(c.flags[base+1:base+i+1], c.flags[base:base+i])
	c.addrs[base], c.last[base], c.flags[base] = addr, last, flags
}

func (c *refCache) lookup(addr uint64, write bool) bool {
	base := c.base(addr)
	i := c.find(base, addr)
	if i < 0 {
		c.misses++
		if c.profiler != nil {
			c.profiler.miss++
		}
		return false
	}
	c.hits++
	if c.profiler != nil {
		c.profiler.hit[i]++
	}
	c.touches++
	c.shiftIn(base, i, c.addrs[base+i], c.touches, c.flags[base+i])
	if write {
		c.flags[base] = c.flags[base]&^refEagerClean | refDirty
	}
	return true
}

func (c *refCache) install(addr uint64, dirty bool) (victimAddr uint64, victimValid, victimDirty bool) {
	c.touches++
	f := uint8(refValid)
	if dirty {
		f |= refDirty
	}
	base := c.base(addr)
	for i := c.ways - 1; i >= 0; i-- {
		if c.flags[base+i]&refValid == 0 {
			c.shiftIn(base, i, addr, c.touches, f)
			return 0, false, false
		}
	}
	victimAddr = c.addrs[base+c.ways-1]
	victimDirty = c.flags[base+c.ways-1]&refDirty != 0
	c.shiftIn(base, c.ways-1, addr, c.touches, f)
	return victimAddr, true, victimDirty
}

func (c *refCache) mergeWriteback(addr uint64) (hit, wasEagerClean bool) {
	base := c.base(addr)
	i := c.find(base, addr)
	if i < 0 {
		return false, false
	}
	wasEagerClean = c.flags[base+i]&refEagerClean != 0
	c.flags[base+i] = c.flags[base+i]&^refEagerClean | refDirty
	return true, wasEagerClean
}

func (c *refCache) invalidate(addr uint64) (dirty bool) {
	base := c.base(addr)
	i := c.find(base, addr)
	if i < 0 {
		return false
	}
	dirty = c.flags[base+i]&refDirty != 0
	c.addrs[base+i], c.last[base+i], c.flags[base+i] = 0, 0, 0
	return dirty
}

func (c *refCache) contains(addr uint64) bool { return c.find(c.base(addr), addr) >= 0 }

func (c *refCache) dirtyLines() int {
	n := 0
	for _, f := range c.flags {
		if f&(refValid|refDirty) == refValid|refDirty {
			n++
		}
	}
	return n
}

func (c *refCache) eagerCandidate(src *rng.Source) (uint64, bool) {
	p := c.profiler
	if p.eagerPos >= c.ways {
		return 0, false
	}
	base := int(src.Uintn(uint64(c.nsets))) * c.ways
	for i := c.ways - 1; i >= p.eagerPos; i-- {
		f := c.flags[base+i]
		if f&(refValid|refDirty) == refValid|refDirty {
			c.flags[base+i] = f&^refDirty | refEagerClean
			return c.addrs[base+i], true
		}
	}
	return 0, false
}

func (c *refCache) eagerCandidateDecay(src *rng.Source, threshold uint64) (uint64, bool) {
	base := int(src.Uintn(uint64(c.nsets))) * c.ways
	best := -1
	var bestAge uint64
	for i := 0; i < c.ways; i++ {
		if c.flags[base+i]&(refValid|refDirty) != refValid|refDirty {
			continue
		}
		age := c.touches - c.last[base+i]
		if age > threshold && age > bestAge {
			best, bestAge = i, age
		}
	}
	if best < 0 {
		return 0, false
	}
	c.flags[base+best] = c.flags[base+best]&^refDirty | refEagerClean
	return c.addrs[base+best], true
}

// refHierarchy is the Hierarchy's control flow over refCache levels,
// with the demand and traffic counters Snapshot reports.
type refHierarchy struct {
	l1, l2, l3 *refCache
	eagerRNG   *rng.Source
	decay      bool
	decayAge   uint64
	wbs        []uint64
	s          Stats
}

func newRefHierarchy(cfg config.Hierarchy, src *rng.Source) *refHierarchy {
	h := &refHierarchy{
		l1:       newRefCache(cfg.L1),
		l2:       newRefCache(cfg.L2),
		l3:       newRefCache(cfg.L3),
		eagerRNG: src,
		decay:    cfg.EagerPredictor == PredictorDecay,
		decayAge: cfg.DecayAccesses,
	}
	h.l3.profiler = NewProfiler(cfg.L3.Ways, cfg.UselessHitRatio)
	return h
}

func (h *refHierarchy) access(byteAddr uint64, write bool) Access {
	addr := byteAddr >> 6
	if write {
		h.s.DemandWrites++
	} else {
		h.s.DemandReads++
	}
	h.wbs = h.wbs[:0]
	if h.l1.lookup(addr, write) {
		return Access{Hit: LevelL1}
	}
	if h.l2.lookup(addr, false) {
		h.fillUpper(addr, write, false)
		return Access{Hit: LevelL2, Writebacks: h.wbs}
	}
	if h.l3.lookup(addr, false) {
		h.fillUpper(addr, write, true)
		return Access{Hit: LevelL3, Writebacks: h.wbs}
	}
	h.s.LLCMisses++
	h.s.MemFetches++
	h.installL3(addr, false)
	h.fillUpper(addr, write, true)
	return Access{Hit: LevelMemory, Fetch: true, FetchAddr: addr, Writebacks: h.wbs}
}

func (h *refHierarchy) fillUpper(addr uint64, write, fillL2 bool) {
	if fillL2 {
		h.installL2(addr, false)
	}
	if v, ok, dirty := h.l1.install(addr, write); ok && dirty {
		if hit, _ := h.l2.mergeWriteback(v); !hit {
			h.installL2(v, true)
		}
	}
}

func (h *refHierarchy) installL2(addr uint64, dirty bool) {
	if v, ok, vdirty := h.l2.install(addr, dirty); ok && vdirty {
		hit, wasted := h.l3.mergeWriteback(v)
		if wasted {
			h.s.WastedEager++
		}
		if !hit {
			h.installL3(v, true)
		}
	}
}

func (h *refHierarchy) installL3(addr uint64, dirty bool) {
	v, ok, vdirty := h.l3.install(addr, dirty)
	if !ok {
		return
	}
	if h.l1.invalidate(v) {
		vdirty = true
	}
	if h.l2.invalidate(v) {
		vdirty = true
	}
	if vdirty {
		h.s.MemWritebacks++
		h.wbs = append(h.wbs, v)
	}
}

func (h *refHierarchy) contains(addr uint64) bool {
	return h.l1.contains(addr) || h.l2.contains(addr) || h.l3.contains(addr)
}

func (h *refHierarchy) installPrefetch(addr uint64) []uint64 {
	h.wbs = h.wbs[:0]
	if h.l3.contains(addr) {
		return nil
	}
	h.installL3(addr, false)
	return h.wbs
}

func (h *refHierarchy) eagerCandidate() (addr uint64, ok bool) {
	if h.decay {
		addr, ok = h.l3.eagerCandidateDecay(h.eagerRNG, h.decayAge)
	} else {
		addr, ok = h.l3.eagerCandidate(h.eagerRNG)
	}
	if ok {
		h.s.EagerIssued++
	}
	return addr, ok
}

func (h *refHierarchy) snapshot() Stats {
	s := h.s
	s.L1Hits, s.L1Misses = h.l1.hits, h.l1.misses
	s.L2Hits, s.L2Misses = h.l2.hits, h.l2.misses
	s.L3Hits, s.L3Misses = h.l3.hits, h.l3.misses
	return s
}

// TestMatchesReferenceLRU drives seeded random streams through the
// Hierarchy and the stack-shift model side by side and requires the
// same observable behaviour after every operation: access outcomes with
// their write-backs, Contains, the LLC profiler counters and eager
// position, eager candidates under both predictors, and Snapshot. The
// sets an operation touched are compared line by line in stack order
// (holes included), and every set plus DirtyLines at a fixed cadence.
// Inclusion is asserted throughout.
func TestMatchesReferenceLRU(t *testing.T) {
	oneWay := tinyCfg()
	oneWay.L1 = config.Cache{SizeBytes: 256, Ways: 1, HitLatency: 2, MSHRs: 8}
	// Levels of 3, 12 and 16 ways use part of one fingerprint word, part
	// of a second and both whole.
	wide := tinyCfg()
	wide.L1 = config.Cache{SizeBytes: 4 * 3 * config.LineBytes, Ways: 3, HitLatency: 2, MSHRs: 8}
	wide.L2 = config.Cache{SizeBytes: 8 * 12 * config.LineBytes, Ways: 12, HitLatency: 12, MSHRs: 12}
	wide.L3 = config.Cache{SizeBytes: 16 * 16 * config.LineBytes, Ways: 16, HitLatency: 35, MSHRs: 32}
	wideLLC := wide
	wideLLC.L1, wideLLC.L2 = tinyCfg().L1, wide.L1
	wideLLC.L3 = config.Cache{SizeBytes: 16 * 12 * config.LineBytes, Ways: 12, HitLatency: 35, MSHRs: 32}
	geometries := []struct {
		name  string
		cfg   config.Hierarchy
		every int // steps between full-state comparisons
	}{
		{"tiny", tinyCfg(), 1},
		{"1-way-L1", oneWay, 1},
		{"3-12-16-way", wide, 8},
		{"12-way-LLC", wideLLC, 8},
		{"table-I", config.Default().Caches, 128},
	}
	ops := 200_000
	if testing.Short() {
		ops = 20_000
	}
	for _, g := range geometries {
		for _, pred := range []string{PredictorLRUProfile, PredictorDecay} {
			t.Run(g.name+"/"+pred, func(t *testing.T) {
				cfg := g.cfg
				cfg.EagerPredictor, cfg.DecayAccesses = pred, 32
				runDifferential(t, cfg, ops, g.every)
			})
		}
	}
}

func runDifferential(t *testing.T, cfg config.Hierarchy, ops, every int) {
	h := NewHierarchy(cfg, rng.New(7))
	ref := newRefHierarchy(cfg, rng.New(7))
	src := rng.New(11)
	l3sets := uint64(cfg.L3.Sets())
	l3lines := l3sets * uint64(cfg.L3.Ways)
	// Hot lines share L3 sets 0-3 with the conflict stream, so they stay
	// hot above while going stale in the LLC: back-invalidation.
	hot := make([]uint64, 8)
	for i := range hot {
		hot[i] = uint64(i)*l3sets + uint64(i%4)
	}
	line := func() uint64 {
		switch k := src.Uintn(10); {
		case k < 5:
			return hot[src.Uintn(uint64(len(hot)))]
		case k < 8:
			return src.Uintn(4*uint64(cfg.L3.Ways))*l3sets + src.Uintn(4)
		default:
			return src.Uintn(8 * l3lines)
		}
	}
	// Coverage: a full-length stream must reach the paths it is meant to
	// test.
	var eagerPositions uint32
	backInvalidations := 0
	defer func() {
		s := h.Snapshot()
		if !t.Failed() && !testing.Short() && (s.EagerIssued == 0 || s.WastedEager == 0 || bits.OnesCount32(eagerPositions) < 2 || backInvalidations == 0) {
			t.Errorf("stream too tame: %d eager, %d wasted, eager positions %b, %d back-invalidations",
				s.EagerIssued, s.WastedEager, eagerPositions, backInvalidations)
		}
	}()
	for step := 0; step < ops; step++ {
		l := line()
		before := llcSet(h.L3, l)
		var above uint32 // lines of before also held in L1 or L2
		for i, tag := range before {
			if tag != 0 && (h.L1.contains(tag>>1) || h.L2.contains(tag>>1)) {
				above |= 1 << i
			}
		}
		switch r := src.Uintn(1000); {
		case r < 10:
			h.RotateProfile()
			ref.l3.profiler.Rotate()
		case r < 60:
			a, ok := h.EagerCandidate()
			ra, rok := ref.eagerCandidate()
			if a != ra || ok != rok {
				t.Fatalf("step %d: eager candidate = (%d, %v), reference (%d, %v)", step, a, ok, ra, rok)
			}
		case r < 90:
			wbs := h.InstallPrefetch(l)
			if rwbs := ref.installPrefetch(l); !slices.Equal(wbs, rwbs) {
				t.Fatalf("step %d: prefetch %d write-backs = %v, reference %v", step, l, wbs, rwbs)
			}
		default:
			byteAddr, write := l<<6|src.Uintn(64), src.Bool(0.4)
			a := h.Access(byteAddr, write)
			ra := ref.access(byteAddr, write)
			if a.Hit != ra.Hit || a.Fetch != ra.Fetch || a.FetchAddr != ra.FetchAddr || !slices.Equal(a.Writebacks, ra.Writebacks) {
				t.Fatalf("step %d: access %d write=%v = %+v, reference %+v", step, l, write, a, ra)
			}
		}
		probe := src.Uintn(8 * l3lines)
		if got, want := h.Contains(probe), ref.contains(probe); got != want {
			t.Fatalf("step %d: Contains(%d) = %v, reference %v", step, probe, got, want)
		}
		p, rp := h.L3.Profiler(), ref.l3.profiler
		if !slices.Equal(p.hit, rp.hit) || p.miss != rp.miss || p.EagerPos() != rp.EagerPos() {
			t.Fatalf("step %d: profiler hits %v misses %d eager %d, reference %v %d %d",
				step, p.hit, p.miss, p.EagerPos(), rp.hit, rp.miss, rp.EagerPos())
		}
		if s, rs := h.Snapshot(), ref.snapshot(); s != rs {
			t.Fatalf("step %d: snapshot %+v, reference %+v", step, s, rs)
		}
		levels := []struct {
			c *Cache
			r *refCache
		}{{h.L1, ref.l1}, {h.L2, ref.l2}, {h.L3, ref.l3}}
		for _, lv := range levels {
			if err := sameSet(lv.c, lv.r, l); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		// Inclusion can only break where the LLC dropped a line, which
		// happens in the operated line's set alone while it holds.
		for i, tag := range before {
			v := tag >> 1
			if tag == 0 || h.L3.contains(v) {
				continue
			}
			if h.L1.contains(v) || h.L2.contains(v) {
				t.Fatalf("step %d: line %d left the LLC but stays above it", step, v)
			}
			if above&(1<<i) != 0 {
				backInvalidations++
			}
		}
		if (h.L1.contains(l) || h.L2.contains(l)) && !h.L3.contains(l) {
			t.Fatalf("step %d: line %d is above the LLC but not in it", step, l)
		}
		eagerPositions |= 1 << p.EagerPos()
		if step%every != 0 {
			continue
		}
		for _, lv := range levels {
			if got, want := lv.c.DirtyLines(), lv.r.dirtyLines(); got != want {
				t.Fatalf("step %d: %v holds %d dirty lines, reference %d", step, lv.c, got, want)
			}
			for si := 0; si < lv.c.nsets; si++ {
				if err := sameSet(lv.c, lv.r, uint64(si)); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		for _, c := range []*Cache{h.L1, h.L2} {
			for _, tag := range c.tags {
				if tag != 0 && !h.L3.contains(tag>>1) {
					t.Fatalf("step %d: %v holds line %d, which the LLC does not", step, c, tag>>1)
				}
			}
		}
	}
}

// llcSet copies the tags of the LLC set holding line l.
func llcSet(c *Cache, l uint64) (tags [config.MaxCacheWays]uint64) {
	_, base := c.locate(l)
	copy(tags[:], c.tags[base:base+c.ways])
	return tags
}

// sameSet compares the set holding line l position by position: the
// line, its state bits and its recency clock, or a hole at the same
// stack position. Every way's fingerprint byte must be its line's, or 0
// for a hole.
func sameSet(c *Cache, r *refCache, l uint64) error {
	si, base := c.locate(l)
	s := c.sets[si]
	for w := 0; w < config.MaxCacheWays; w++ {
		var want uint64
		if w < c.ways && c.tags[base+w] != 0 {
			want = fingerprint(c.tags[base+w] >> 1)
		}
		if got := s.fp[w>>3] >> (8 * (w & 7)) & 0xff; got != want {
			return fmt.Errorf("%v set %d way %d: fingerprint %#x, want %#x", c, si, w, got, want)
		}
	}
	holes := 0
	for p := 0; p < c.ways; p++ {
		w, rf := wayAt(s.order, p), r.flags[base+p]
		tag := c.tags[base+w]
		if (tag != 0) != (rf&refValid != 0) {
			return fmt.Errorf("%v set %d position %d: valid %v, reference %v", c, si, p, tag != 0, rf&refValid != 0)
		}
		if tag == 0 {
			holes++
			continue
		}
		dirty, eager := s.dirty&(1<<w) != 0, s.eager&(1<<w) != 0
		if tag>>1 != r.addrs[base+p] || dirty != (rf&refDirty != 0) || eager != (rf&refEagerClean != 0) || c.last[base+w] != r.last[base+p] {
			return fmt.Errorf("%v set %d position %d: line %d dirty %v eager-clean %v last %d, reference %d flags %b last %d",
				c, si, p, tag>>1, dirty, eager, c.last[base+w], r.addrs[base+p], rf, r.last[base+p])
		}
	}
	if holes != int(s.holes) {
		return fmt.Errorf("%v set %d: hole count %d, %d invalid ways", c, si, s.holes, holes)
	}
	return nil
}

// TestFingerprintCollisions fills sets with lines that share one
// fingerprint but not a tag, so every probe flags several ways, and
// drives lookups, fills, merges, invalidations and probes on them
// against the reference level.
func TestFingerprintCollisions(t *testing.T) {
	for _, ways := range []int{3, 8, 12, 16} {
		t.Run(fmt.Sprintf("%d-way", ways), func(t *testing.T) {
			cfg := config.Cache{SizeBytes: 4 * ways * config.LineBytes, Ways: ways, HitLatency: 2, MSHRs: 8}
			c, ref := New(cfg), newRefCache(cfg)
			defer c.release()
			// Lines of set 1 and of set 2 with one fingerprint each, two
			// more than the set holds.
			var lines []uint64
			for _, si := range []uint64{1, 2} {
				var f uint64
				var same []uint64
				for l := si; len(same) < ways+2; l += uint64(c.nsets) {
					if len(same) == 0 {
						f = fingerprint(l)
					}
					if fingerprint(l) == f {
						same = append(same, l)
					}
				}
				lines = append(lines, same...)
			}
			src := rng.New(uint64(ways))
			for step := 0; step < 20_000; step++ {
				l := lines[src.Uintn(uint64(len(lines)))]
				var got, want bool
				op := src.Uintn(4)
				switch op {
				case 0:
					write := src.Bool(0.5)
					if got, want = c.lookup(l, write), ref.lookup(l, write); !got {
						c.install(l, write)
						ref.install(l, write)
					}
				case 1:
					var gotEager, wantEager bool
					got, gotEager = c.mergeWriteback(l)
					want, wantEager = ref.mergeWriteback(l)
					if gotEager != wantEager {
						t.Fatalf("step %d: mergeWriteback(%d) eager-clean %v, reference %v", step, l, gotEager, wantEager)
					}
					if !got {
						va, vok, vd := c.install(l, true)
						ra, rok, rd := ref.install(l, true)
						if va != ra || vok != rok || vd != rd {
							t.Fatalf("step %d: install(%d) victim (%d %v %v), reference (%d %v %v)", step, l, va, vok, vd, ra, rok, rd)
						}
					}
				case 2:
					got, want = c.invalidate(l), ref.invalidate(l)
				default:
					got, want = c.contains(l), ref.contains(l)
				}
				if got != want {
					t.Fatalf("step %d: op %d on line %d = %v, reference %v", step, op, l, got, want)
				}
				if err := sameSet(c, ref, l); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if c.Hits() == 0 || c.Misses() == 0 || c.Hits() != ref.hits || c.Misses() != ref.misses {
				t.Errorf("hits %d misses %d, reference %d %d; want both paths taken", c.Hits(), c.Misses(), ref.hits, ref.misses)
			}
		})
	}
}
