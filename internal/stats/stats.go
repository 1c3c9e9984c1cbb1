// Package stats provides the measurement primitives shared by the
// simulator — busy-time meters for bank utilization (Figures 3, 12, 18b),
// a toggle meter for write-drain time (Figure 13), counters, and plain-
// text table rendering for the experiment harness.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"

	"mellow/internal/sim"
)

// BusyMeter accumulates the busy time of a resource whose busy intervals
// never overlap (a memory bank services one operation at a time).
type BusyMeter struct {
	accum sim.Tick
	start sim.Tick // window start, set by Reset
}

// AddBusy records a busy interval [from, to). Intervals before the
// current window start are clipped.
func (b *BusyMeter) AddBusy(from, to sim.Tick) {
	if to <= from {
		return
	}
	if from < b.start {
		if to <= b.start {
			return
		}
		from = b.start
	}
	b.accum += to - from
}

// Utilization returns busy time as a fraction of the window [start, now).
func (b *BusyMeter) Utilization(now sim.Tick) float64 {
	if now <= b.start {
		return 0
	}
	return float64(b.accum) / float64(now-b.start)
}

// Reset zeroes the meter and starts a new window at now. Busy intervals
// that began before now must be re-reported by the caller if they extend
// past it (the memory model reports completion-time intervals, so a
// mid-operation reset clips at most one operation).
func (b *BusyMeter) Reset(now sim.Tick) {
	b.accum = 0
	b.start = now
}

// Toggle accumulates the total time a boolean condition is true (e.g.
// the controller's write-drain mode).
type Toggle struct {
	on    bool
	since sim.Tick
	accum sim.Tick
	start sim.Tick
}

// Set records a state change at time now. Setting the current state is a
// no-op.
func (t *Toggle) Set(on bool, now sim.Tick) {
	if on == t.on {
		return
	}
	if t.on {
		t.accum += now - t.since
	}
	t.on = on
	t.since = now
}

// Total returns accumulated on-time through now.
func (t *Toggle) Total(now sim.Tick) sim.Tick {
	total := t.accum
	if t.on && now > t.since {
		total += now - t.since
	}
	return total
}

// Fraction returns on-time as a fraction of the window since Reset.
func (t *Toggle) Fraction(now sim.Tick) float64 {
	if now <= t.start {
		return 0
	}
	return float64(t.Total(now)) / float64(now-t.start)
}

// Reset zeroes accumulation and starts a new window at now, preserving
// the current on/off state.
func (t *Toggle) Reset(now sim.Tick) {
	t.accum = 0
	t.since = now
	t.start = now
}

// Table is a plain-text table with a title, for experiment output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row; cells beyond the header width are kept (the
// renderer sizes columns by content).
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			// Left-align the first column (labels), right-align numbers.
			if i == 0 {
				fmt.Fprintf(&sb, "%-*s", widths[i], cell)
			} else {
				fmt.Fprintf(&sb, "%*s", widths[i], cell)
			}
		}
		sb.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range widths {
			total += w
		}
		sb.WriteString(strings.Repeat("-", total+2*(cols-1)))
		sb.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// F formats a float with the given number of decimals — the standard
// numeric cell formatter.
func F(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// Pct formats a fraction as a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// Geomean returns the geometric mean of positive values; zero or
// negative entries are skipped. It returns 0 for an empty input.
func Geomean(vs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
