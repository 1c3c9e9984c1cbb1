package cache

import "mellow/internal/rng"

// Eager-candidate predictor names (config.Hierarchy.EagerPredictor).
const (
	// PredictorLRUProfile is the paper's §IV-B1 scheme: LRU stack
	// positions whose hits fall below the useless threshold.
	PredictorLRUProfile = "lru-profile"
	// PredictorDecay is a timeout-style dead-block predictor (the §VII
	// future-work direction): a dirty line untouched for more than a
	// threshold number of LLC accesses is presumed dead and eligible for
	// eager write-back.
	PredictorDecay = "decay"
)

// EagerCandidateDecay picks an eager write-back candidate using decay
// prediction: from a random set, the stalest dirty line whose age (in
// LLC accesses) exceeds threshold. The chosen line is marked clean but
// stays resident, exactly like the LRU-profile scheme.
func (c *Cache) EagerCandidateDecay(src *rng.Source, threshold uint64) (addr uint64, ok bool) {
	si := int(src.Uintn(uint64(c.nsets)))
	s := &c.sets[si]
	base := si * c.ways
	if s.dirty == 0 {
		return 0, false
	}
	best := -1
	var bestAge uint64
	// Scan in stack order from MRU: with the strict >, an age tie goes
	// to the line nearer MRU.
	for p := 0; p < c.ways; p++ {
		w := wayAt(s.order, p)
		if s.dirty&(1<<w) == 0 {
			continue
		}
		age := c.touches - c.last[base+w]
		if age > threshold && age > bestAge {
			best, bestAge = w, age
		}
	}
	if best < 0 {
		return 0, false
	}
	s.dirty &^= 1 << best
	s.eager |= 1 << best
	return c.tags[base+best] >> 1, true
}
