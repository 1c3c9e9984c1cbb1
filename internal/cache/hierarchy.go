package cache

import (
	"mellow/internal/config"
	"mellow/internal/metrics"
	"mellow/internal/rng"
)

// Level identifies where an access was satisfied.
type Level int

// Hit levels; LevelMemory means the LLC missed.
const (
	LevelL1 Level = iota + 1
	LevelL2
	LevelL3
	LevelMemory
)

// Access is the outcome of one demand access: where it hit, whether a
// memory fetch is required (LLC miss, including write-allocate fetches),
// and which dirty lines were pushed out of the LLC towards memory.
type Access struct {
	Hit        Level
	Fetch      bool
	FetchAddr  uint64   // line address to fetch when Fetch
	Writebacks []uint64 // line addresses evicted dirty from the LLC
}

// Hierarchy is the three-level write-back write-allocate cache hierarchy
// with an inclusive, back-invalidating LLC.
type Hierarchy struct {
	L1, L2, L3 *Cache
	eagerRNG   *rng.Source
	predictor  string
	decayAge   uint64

	wbScratch []uint64 // reused across accesses to avoid per-access allocs

	demandReads   uint64
	demandWrites  uint64
	llcMisses     uint64
	memFetches    uint64
	memWritebacks uint64
	eagerIssued   uint64
	wastedEager   uint64
}

// NewHierarchy builds the hierarchy from the Table I configuration. The
// profiler threshold and the eager candidate RNG come from cfg and src.
func NewHierarchy(cfg config.Hierarchy, src *rng.Source) *Hierarchy {
	h := &Hierarchy{
		L1:        New(cfg.L1),
		L2:        New(cfg.L2),
		L3:        New(cfg.L3),
		eagerRNG:  src,
		predictor: cfg.EagerPredictor,
		decayAge:  cfg.DecayAccesses,
	}
	if h.predictor == "" {
		h.predictor = PredictorLRUProfile
	}
	h.L3.AttachProfiler(cfg.UselessHitRatio)
	return h
}

// Release hands the three levels' arrays back for reuse by the next
// hierarchy of the same geometry. Only whoever built the hierarchy
// releases it, once, and only after everything it reports has been
// read: counters, snapshots and metrics collectors still work, but any
// access or candidate pick panics.
func (h *Hierarchy) Release() {
	h.L1.release()
	h.L2.release()
	h.L3.release()
}

// Access performs one demand access at a byte address. The returned
// slice aliases internal scratch and is only valid until the next call.
func (h *Hierarchy) Access(byteAddr uint64, write bool) Access {
	addr := byteAddr >> 6 // line address
	if write {
		h.demandWrites++
	} else {
		h.demandReads++
	}
	h.wbScratch = h.wbScratch[:0]

	if h.L1.lookup(addr, write) {
		return Access{Hit: LevelL1}
	}
	if h.L2.lookup(addr, false) {
		h.fillUpper(addr, write, false)
		return Access{Hit: LevelL2, Writebacks: h.wbScratch}
	}
	if h.L3.lookup(addr, false) {
		h.fillUpper(addr, write, true)
		return Access{Hit: LevelL3, Writebacks: h.wbScratch}
	}
	// LLC miss: fetch from memory, allocate in all levels.
	h.llcMisses++
	h.memFetches++
	h.installL3(addr, false)
	h.fillUpper(addr, write, true)
	return Access{Hit: LevelMemory, Fetch: true, FetchAddr: addr, Writebacks: h.wbScratch}
}

// fillUpper allocates addr into L1 (always) and L2 (when the hit came
// from L3 or memory), cascading any dirty victims downwards. A store
// dirties the L1 copy.
func (h *Hierarchy) fillUpper(addr uint64, write, fillL2 bool) {
	if fillL2 {
		h.installL2(addr, false)
	}
	if v, ok, dirty := h.L1.install(addr, write); ok && dirty {
		h.writebackToL2(v)
	}
}

// writebackToL2 delivers a dirty L1 victim to L2.
func (h *Hierarchy) writebackToL2(addr uint64) {
	if hit, _ := h.L2.mergeWriteback(addr); !hit {
		h.installL2(addr, true)
	}
}

// installL2 allocates in L2, cascading a dirty victim to L3.
func (h *Hierarchy) installL2(addr uint64, dirty bool) {
	if v, ok, vdirty := h.L2.install(addr, dirty); ok && vdirty {
		h.writebackToL3(v)
	}
}

// writebackToL3 delivers a dirty L2 victim to L3, counting wasted eager
// write-backs (a dirty line landing on a copy an eager write had
// cleaned means that eager write was wasted, §VI-D).
func (h *Hierarchy) writebackToL3(addr uint64) {
	hit, wasted := h.L3.mergeWriteback(addr)
	if wasted {
		h.wastedEager++
	}
	if !hit {
		h.installL3(addr, true)
	}
}

// installL3 allocates in the LLC. Its victim is back-invalidated from
// the upper levels (inclusive LLC); a dirty copy anywhere becomes a
// memory write-back.
func (h *Hierarchy) installL3(addr uint64, dirty bool) {
	v, ok, vdirty := h.L3.install(addr, dirty)
	if !ok {
		return
	}
	if h.L1.invalidate(v) {
		vdirty = true
	}
	if h.L2.invalidate(v) {
		vdirty = true
	}
	if vdirty {
		h.memWritebacks++
		h.wbScratch = append(h.wbScratch, v)
	}
}

// Contains reports whether a line address is resident at any level
// (prefetcher duplicate suppression). The LLC is inclusive, so probing
// it alone answers for all three.
func (h *Hierarchy) Contains(addr uint64) bool { return h.L3.contains(addr) }

// InstallPrefetch allocates a prefetched line into the LLC only (it was
// not demanded, so the upper levels are not polluted). Dirty LLC victims
// displaced by the prefetch are returned as write-backs; the slice
// aliases internal scratch, valid until the next Access/InstallPrefetch.
func (h *Hierarchy) InstallPrefetch(addr uint64) []uint64 {
	h.wbScratch = h.wbScratch[:0]
	if h.L3.contains(addr) {
		return nil
	}
	h.installL3(addr, false)
	return h.wbScratch
}

// EagerCandidate asks the LLC for a useless dirty line to eagerly write
// back (Figure 8), using the configured predictor. It returns the line
// address. The line is marked clean but stays resident.
func (h *Hierarchy) EagerCandidate() (addr uint64, ok bool) {
	if h.predictor == PredictorDecay {
		addr, ok = h.L3.EagerCandidateDecay(h.eagerRNG, h.decayAge)
	} else {
		addr, ok = h.L3.EagerCandidate(h.eagerRNG)
	}
	if ok {
		h.eagerIssued++
	}
	return addr, ok
}

// RotateProfile closes one T_sample profiling period (§IV-B1).
func (h *Hierarchy) RotateProfile() { h.L3.Profiler().Rotate() }

// Stats is a snapshot of hierarchy counters.
type Stats struct {
	DemandReads      uint64
	DemandWrites     uint64
	LLCMisses        uint64
	MemFetches       uint64
	MemWritebacks    uint64
	EagerIssued      uint64
	WastedEager      uint64
	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64
	L3Hits, L3Misses uint64
}

// Snapshot returns the counters since the last ResetStats.
func (h *Hierarchy) Snapshot() Stats {
	return Stats{
		DemandReads:   h.demandReads,
		DemandWrites:  h.demandWrites,
		LLCMisses:     h.llcMisses,
		MemFetches:    h.memFetches,
		MemWritebacks: h.memWritebacks,
		EagerIssued:   h.eagerIssued,
		WastedEager:   h.wastedEager,
		L1Hits:        h.L1.Hits(), L1Misses: h.L1.Misses(),
		L2Hits: h.L2.Hits(), L2Misses: h.L2.Misses(),
		L3Hits: h.L3.Hits(), L3Misses: h.L3.Misses(),
	}
}

// ResetStats zeroes all counters (end of warmup); cache contents are
// preserved.
func (h *Hierarchy) ResetStats() {
	h.demandReads, h.demandWrites, h.llcMisses = 0, 0, 0
	h.memFetches, h.memWritebacks, h.eagerIssued, h.wastedEager = 0, 0, 0, 0
	h.L1.ResetStats()
	h.L2.ResetStats()
	h.L3.ResetStats()
}

// CollectMetrics publishes the hierarchy's counters into a per-run
// metrics registry. Read-only: it walks no sets and touches no
// recency state, so collecting can never perturb the simulation.
func (h *Hierarchy) CollectMetrics(g *metrics.Gatherer) {
	g.Counter("sim_cache_demand_reads_total", "Demand reads entering the hierarchy since the last stats reset.", h.demandReads)
	g.Counter("sim_cache_demand_writes_total", "Demand writes entering the hierarchy since the last stats reset.", h.demandWrites)
	g.Counter("sim_cache_llc_misses_total", "LLC misses (memory fetches required).", h.llcMisses)
	g.Counter("sim_cache_mem_fetches_total", "Line fetches issued to memory.", h.memFetches)
	g.Counter("sim_cache_mem_writebacks_total", "Dirty lines pushed from the LLC to memory.", h.memWritebacks)
	g.Counter("sim_cache_eager_issued_total", "Eager write-backs issued by the predictor.", h.eagerIssued)
	g.Counter("sim_cache_eager_wasted_total", "Eager write-backs invalidated by a later dirtying (wasted).", h.wastedEager)
	for _, lv := range []struct {
		name string
		c    *Cache
	}{{"l1", h.L1}, {"l2", h.L2}, {"l3", h.L3}} {
		g.CounterL("sim_cache_hits_total", "Cache hits by level.", "level", lv.name, lv.c.Hits())
		g.CounterL("sim_cache_misses_total", "Cache misses by level.", "level", lv.name, lv.c.Misses())
	}
}
