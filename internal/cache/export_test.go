package cache

import "math/bits"

// Accesses returns total demand accesses.
func (c *Cache) Accesses() uint64 { return c.acc }

// DirtyEvictions returns the count of dirty victims produced.
func (c *Cache) DirtyEvictions() uint64 { return c.dirtyEv }

// DirtyLines counts dirty lines currently resident.
func (c *Cache) DirtyLines() int {
	n := 0
	for _, s := range c.sets {
		n += bits.OnesCount16(s.dirty)
	}
	return n
}
