package wear

import (
	"math"

	"mellow/internal/sim"
)

// SystemLifetimeYears returns the minimum lifetime across banks — the
// paper's "time until one cell reaches its wear limit".
func SystemLifetimeYears(meters []*Meter, blocksPerBank int64, enduranceBlk, eff float64, window sim.Tick) float64 {
	min := math.Inf(1)
	for _, m := range meters {
		if y := LifetimeYears(m.Damage(), blocksPerBank, enduranceBlk, eff, window); y < min {
			min = y
		}
	}
	return min
}

// Bound returns the per-period wear bound (for tests and reports).
func (q *Quota) Bound() float64 { return q.bound }
