package cache

import "math/bits"

// DirtyLines counts dirty lines currently resident.
func (c *Cache) DirtyLines() int {
	n := 0
	for _, s := range c.sets {
		n += bits.OnesCount16(s.dirty)
	}
	return n
}

// Touches returns the cache's logical access clock (tests).
func (c *Cache) Touches() uint64 { return c.touches }

// EagerPos returns the current eager LRU position; stack positions at or
// beyond it are useless until the next rotation.
func (p *Profiler) EagerPos() int { return p.eagerPos }

// Rotations returns how many sampling periods have completed.
func (p *Profiler) Rotations() uint64 { return p.rotations }
