package cache

import (
	"testing"
	"testing/quick"

	"mellow/internal/config"
	"mellow/internal/rng"
)

// tinyCfg is a small hierarchy that exercises evictions quickly:
// L1 4 sets×2 ways, L2 8×2, L3 16×4 (all lines = 64B).
func tinyCfg() config.Hierarchy {
	return config.Hierarchy{
		L1:              config.Cache{SizeBytes: 512, Ways: 2, HitLatency: 2, MSHRs: 8},
		L2:              config.Cache{SizeBytes: 1024, Ways: 2, HitLatency: 12, MSHRs: 12},
		L3:              config.Cache{SizeBytes: 4096, Ways: 4, HitLatency: 35, MSHRs: 32},
		UselessHitRatio: 1.0 / 32.0,
		ProfilePeriod:   1000,
	}
}

func newTiny(t *testing.T) *Hierarchy {
	t.Helper()
	for _, c := range []config.Cache{tinyCfg().L1, tinyCfg().L2, tinyCfg().L3} {
		if c.Sets()*c.Ways*config.LineBytes != c.SizeBytes {
			t.Fatalf("tiny config inconsistent: %+v", c)
		}
	}
	return NewHierarchy(tinyCfg(), rng.New(1))
}

func addr(line uint64) uint64 { return line << 6 }

func TestColdMissThenHit(t *testing.T) {
	h := newTiny(t)
	a := h.Access(addr(100), false)
	if a.Hit != LevelMemory || !a.Fetch || a.FetchAddr != 100 {
		t.Fatalf("cold access = %+v, want memory fetch of line 100", a)
	}
	a = h.Access(addr(100), false)
	if a.Hit != LevelL1 {
		t.Fatalf("second access hit %v, want L1", a.Hit)
	}
	s := h.Snapshot()
	if s.LLCMisses != 1 || s.MemFetches != 1 {
		t.Errorf("stats = %+v, want 1 LLC miss/fetch", s)
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	h := newTiny(t)
	// Store to a cold line: write-allocate fetches it.
	a := h.Access(addr(5), true)
	if !a.Fetch {
		t.Fatal("store miss must fetch (write-allocate)")
	}
	if h.L1.DirtyLines() != 1 {
		t.Fatalf("dirty L1 lines = %d, want 1", h.L1.DirtyLines())
	}
	// Stream enough distinct lines through to evict line 5 from every
	// level; its dirtiness must surface as exactly one memory writeback.
	wbs := 0
	for l := uint64(1000); l < 1200; l++ {
		r := h.Access(addr(l), false)
		for _, wb := range r.Writebacks {
			if wb == 5 {
				wbs++
			}
		}
	}
	if wbs != 1 {
		t.Errorf("line 5 written back %d times, want exactly 1", wbs)
	}
	if h.L1.contains(5) || h.L2.contains(5) || h.L3.contains(5) {
		t.Error("line 5 still resident after streaming eviction")
	}
}

func TestCleanEvictionsSilent(t *testing.T) {
	h := newTiny(t)
	for l := uint64(0); l < 500; l++ {
		r := h.Access(addr(l), false) // reads only: nothing is dirty
		if len(r.Writebacks) != 0 {
			t.Fatalf("clean read stream produced writeback of %v", r.Writebacks)
		}
	}
}

func TestLRUOrder(t *testing.T) {
	// With a 4-way L3 set, the 5th distinct line mapping to the same set
	// evicts the least recently used one.
	h := newTiny(t)
	sets := uint64(16)                             // L3 sets in tinyCfg
	lines := []uint64{0, sets, 2 * sets, 3 * sets} // all map to L3 set 0
	for _, l := range lines {
		h.Access(addr(l), false)
	}
	// Touch line 0 to make it MRU, then bring in a 5th line.
	h.Access(addr(0), false)
	h.Access(addr(4*sets), false)
	if !h.L3.contains(0) {
		t.Error("recently touched line 0 was evicted")
	}
	if h.L3.contains(sets) {
		t.Error("LRU line (sets) survived the conflict fill")
	}
}

func TestInclusionBackInvalidation(t *testing.T) {
	h := newTiny(t)
	// Fill line X everywhere, then force it out of L3 via set conflicts.
	const x = 0
	h.Access(addr(x), true) // dirty in L1
	sets := uint64(16)
	for k := uint64(1); k <= 4; k++ {
		h.Access(addr(k*sets), false) // same L3 set as x
	}
	if h.L3.contains(x) {
		t.Fatal("line x should have been evicted from L3")
	}
	if h.L1.contains(x) || h.L2.contains(x) {
		t.Error("back-invalidation did not remove x from upper levels")
	}
	// The dirty data in L1 must have been merged into a memory writeback.
	if h.Snapshot().MemWritebacks != 1 {
		t.Errorf("writebacks = %d, want 1 (merged dirty upper copy)", h.Snapshot().MemWritebacks)
	}
}

func TestHitLevels(t *testing.T) {
	h := newTiny(t)
	h.Access(addr(7), false) // memory
	// Evict from L1 only: two more lines in L1 set of 7 (L1 has 4 sets,
	// 2 ways): lines 7, 11, 15 share L1 set 3.
	h.Access(addr(11), false)
	h.Access(addr(15), false)
	got := h.Access(addr(7), false)
	if got.Hit == LevelL1 || got.Hit == LevelMemory {
		t.Fatalf("hit level = %v, want L2 or L3", got.Hit)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	h := newTiny(t)
	for l := uint64(0); l < 64; l++ {
		h.Access(addr(l), l%2 == 0)
	}
	s := h.Snapshot()
	if s.DemandReads+s.DemandWrites != 64 {
		t.Errorf("demand = %d, want 64", s.DemandReads+s.DemandWrites)
	}
	if s.LLCMisses == 0 {
		t.Error("expected LLC misses")
	}
	h.ResetStats()
	s = h.Snapshot()
	if s.DemandReads != 0 || s.LLCMisses != 0 || s.MemWritebacks != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
	// Contents preserved: line 63 still hits.
	if a := h.Access(addr(63), false); a.Hit == LevelMemory {
		t.Error("reset dropped cache contents")
	}
}

// Property: the hierarchy never loses a dirty line — every store's line
// either remains resident somewhere or has been written back exactly
// once since it was last dirtied.
func TestQuickNoLostDirtyLines(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		h := NewHierarchy(tinyCfg(), rng.New(2))
		dirty := map[uint64]bool{} // lines stored to and not yet written back
		for i := 0; i < 3000; i++ {
			l := src.Uintn(512)
			write := src.Bool(0.4)
			r := h.Access(addr(l), write)
			for _, wb := range r.Writebacks {
				if !dirty[wb] {
					return false // writeback of a line never dirtied
				}
				delete(dirty, wb)
			}
			if write {
				dirty[l] = true
			}
		}
		// Every still-dirty line must be resident somewhere.
		for l := range dirty {
			if !h.L1.contains(l) && !h.L2.contains(l) && !h.L3.contains(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestProfilerBoundary(t *testing.T) {
	p := NewProfiler(8, 1.0/32.0)
	// 1000 requests: positions 0-2 get nearly everything; positions 3+
	// get fewer than 1/32 of requests combined.
	p.hit[0], p.hit[1], p.hit[2] = 600, 250, 120
	p.hit[3], p.hit[4], p.hit[7] = 10, 5, 5
	p.miss = 10
	p.Rotate()
	if p.EagerPos() != 3 {
		t.Errorf("eager position = %d, want 3 (paper Figure 7 shape)", p.EagerPos())
	}
	// Counters reset after rotation.
	hits, misses := p.Counters()
	for _, v := range hits {
		if v != 0 {
			t.Fatal("hit counters not reset")
		}
	}
	if misses != 0 {
		t.Fatal("miss counter not reset")
	}
}

func TestProfilerAllHot(t *testing.T) {
	p := NewProfiler(4, 1.0/32.0)
	for i := range p.hit {
		p.hit[i] = 1000 // every position earns its keep
	}
	p.Rotate()
	if p.EagerPos() != 4 {
		t.Errorf("eager position = %d, want 4 (no useless positions)", p.EagerPos())
	}
}

func TestProfilerAllMisses(t *testing.T) {
	// A pure streaming period: all misses, no hits anywhere. Every
	// position is useless — dirty lines will never be re-used.
	p := NewProfiler(4, 1.0/32.0)
	p.miss = 10000
	p.Rotate()
	if p.EagerPos() != 0 {
		t.Errorf("eager position = %d, want 0 (all positions useless)", p.EagerPos())
	}
}

func TestProfilerNoTraffic(t *testing.T) {
	p := NewProfiler(4, 1.0/32.0)
	p.Rotate()
	if p.EagerPos() != 4 {
		t.Errorf("eager position = %d, want 4 (no evidence)", p.EagerPos())
	}
}

func TestEagerCandidateLifecycle(t *testing.T) {
	h := newTiny(t)
	// Dirty a bunch of lines that settle in L3.
	for l := uint64(0); l < 64; l++ {
		h.Access(addr(l), true)
	}
	// Make all positions useless (streaming profile).
	p := h.L3.Profiler()
	p.miss = 100000
	p.Rotate()
	got := 0
	seen := map[uint64]bool{}
	for i := 0; i < 2000 && got < 10; i++ {
		a, ok := h.EagerCandidate()
		if !ok {
			continue
		}
		if seen[a] {
			t.Fatalf("candidate %d returned twice without re-dirtying", a)
		}
		seen[a] = true
		got++
	}
	if got < 10 {
		t.Fatalf("only %d eager candidates found", got)
	}
	if h.Snapshot().EagerIssued != uint64(got) {
		t.Errorf("EagerIssued = %d, want %d", h.Snapshot().EagerIssued, got)
	}
}

func TestEagerCandidateRespectsBoundary(t *testing.T) {
	h := newTiny(t)
	for l := uint64(0); l < 64; l++ {
		h.Access(addr(l), true)
	}
	// Boundary at the associativity: nothing is useless.
	if _, ok := h.EagerCandidate(); ok {
		t.Error("candidate produced before any profile rotation")
	}
}

func TestWastedEagerDetection(t *testing.T) {
	h := newTiny(t)
	// Dirty a line and push it to L3 (evict from L1 and L2 via conflicts).
	h.Access(addr(0), true)
	// L1 set 0 also holds lines 4, 8 (4 L1 sets, 2 ways); L2 (8 sets,
	// 2 ways) set 0 holds 8, 16.
	h.Access(addr(4), true)
	h.Access(addr(8), true)
	h.Access(addr(16), true)
	h.Access(addr(24), true)
	if !h.L3.contains(0) {
		t.Skip("line 0 unexpectedly left L3; adjust conflict lines")
	}
	// Make everything useless and eagerly clean line 0 (retry until the
	// random set lands on it).
	p := h.L3.Profiler()
	p.miss = 1 << 20
	p.Rotate()
	cleaned := false
	for i := 0; i < 5000; i++ {
		if a, ok := h.EagerCandidate(); ok && a == 0 {
			cleaned = true
			break
		}
	}
	if !cleaned {
		t.Fatal("never eager-cleaned line 0")
	}
	// Re-dirty it: the merge must count one wasted eager write.
	h.Access(addr(0), true)
	// Force it back out of L1/L2 so the dirty data merges into L3.
	h.Access(addr(4), true)
	h.Access(addr(8), true)
	h.Access(addr(16), true)
	h.Access(addr(24), true)
	if h.Snapshot().WastedEager == 0 {
		t.Error("wasted eager write not detected")
	}
}

func TestLLCPositionCountersTrackHits(t *testing.T) {
	h := newTiny(t)
	// Two lines in the same L3 set, accessed so L2/L1 never hold them:
	// use lines far apart mapping to same L3 set but different L1/L2
	// sets... simpler: access each line once (install), then evict from
	// L1/L2 by streaming others, then re-access and check counters moved.
	h.Access(addr(3), false)
	for l := uint64(100); l < 140; l++ {
		h.Access(addr(l), false)
	}
	if h.L3.contains(3) {
		h.Access(addr(3), false) // should hit L3 at some stack position
		hits, _ := h.L3.Profiler().Counters()
		total := uint64(0)
		for _, v := range hits {
			total += v
		}
		if total == 0 {
			t.Error("L3 hit did not increment any position counter")
		}
	}
}

func TestMergeWritebackDoesNotPromote(t *testing.T) {
	// A dirty write-back arriving at L2 must not refresh the line's LRU
	// position: write-backs are not demand uses.
	c := New(config.Cache{SizeBytes: 256, Ways: 2, HitLatency: 1, MSHRs: 1}) // 2 sets × 2 ways
	c.install(0, false)                                                      // set 0: [0]
	c.install(2, false)                                                      // set 0: [2, 0]
	if hit, _ := c.mergeWriteback(0); !hit {
		t.Fatal("merge missed resident line")
	}
	// Insert a third line: victim must be 0 (still LRU despite merge).
	v, ok, dirty := c.install(4, false)
	if !ok || v != 0 {
		t.Errorf("victim = %d (ok=%v), want 0", v, ok)
	}
	if !dirty {
		t.Error("merged dirty bit lost on eviction")
	}
}
