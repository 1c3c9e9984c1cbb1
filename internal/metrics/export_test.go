package metrics

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }
