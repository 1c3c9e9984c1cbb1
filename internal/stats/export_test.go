package stats

import (
	"math"

	"mellow/internal/sim"
)

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) at
// bucket resolution: the top of the bucket containing it. The target
// rank is the ceiling of q·count — truncation would bias small-sample
// p95/p99 one bucket low whenever q·count is fractional (with 10
// samples, p95 must cover the 10th sample, not the 9th).
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			return 1<<uint(i+1) - 1
		}
	}
	return 1<<uint(len(h.buckets)) - 1
}

// Busy returns the accumulated busy time.
func (b *BusyMeter) Busy() sim.Tick { return b.accum }

// On reports the current state.
func (t *Toggle) On() bool { return t.on }
