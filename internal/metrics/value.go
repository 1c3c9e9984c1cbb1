package metrics

import (
	"math"
	"sync/atomic"

	"mellow/internal/stats"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; all methods are safe for concurrent use and wait-free.
type Counter struct{ v atomic.Uint64 }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 gauge. The zero value is ready to use; all
// methods are safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (CAS loop; wait-free in practice).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a lock-free distribution on the stats.Histogram
// power-of-two bucket layout: bucket i counts values in [2^i, 2^(i+1)).
// Observe is wait-free (two atomic adds). A concurrent Snapshot may
// tear between sum and buckets by a few in-flight samples — fine for
// monitoring; the count is derived from the buckets so the exposition's
// cumulative +Inf bucket always equals its _count line.
type Histogram struct {
	buckets [stats.NumBuckets]atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.sum.Add(v)
	h.buckets[stats.BucketIndex(v)].Add(1)
}

// Snapshot copies the distribution into a stats.Histogram value.
func (h *Histogram) Snapshot() stats.Histogram {
	var b [stats.NumBuckets]uint64
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
	}
	return stats.FromBuckets(b[:], h.sum.Load())
}
