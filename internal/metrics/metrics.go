// Package metrics is the repository's single telemetry spine: a
// registry of named counter, gauge and histogram families with
// lock-free hot paths, rendered on demand into Prometheus text
// exposition or a JSON snapshot.
//
// Two scopes use it. The process registry (mellowd's /metrics) carries
// service counters, scheduler occupancy, the simulation memo-cache and
// Go runtime basics. Per-run registries are threaded through the engine
// so cpu, cache, mem and wear publish their simulation counters as
// collectors — read-only functions evaluated only when a snapshot is
// taken, so instrumentation can never perturb simulation event order.
//
// Hot-path writes are wait-free: counters and gauges are single
// atomics, histograms are atomic power-of-two buckets on the
// stats.Histogram layout. Snapshots are taken first and rendered after,
// so no lock is ever held while bytes are written to a slow client.
package metrics

import (
	"fmt"
	"sort"
	"sync"

	"mellow/internal/stats"
)

// Kind classifies a metric family.
type Kind string

// Family kinds, named after their Prometheus TYPE.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Collector contributes snapshot-time values to a registry: it is
// called with a Gatherer during Registry.Snapshot and must only read
// the state it reports. Collectors on per-run registries additionally
// must not mutate simulation state — that is the determinism contract
// that keeps an instrumented run bit-identical to a bare one.
type Collector func(*Gatherer)

// Labelled returns c with label="value" put in front of the labels of
// every cell it publishes, so that several components that publish the
// same families (the cores of a multiprogrammed mix) stay apart. The
// labelled families are rendered as pre-rendered label sets (Raw).
func Labelled(label, value string, c Collector) Collector {
	pair := label + `="` + escapeLabel(value) + `"`
	return func(g *Gatherer) {
		sub := &Gatherer{fams: map[string]*Family{}}
		c(sub)
		for _, name := range sub.order {
			f := sub.fams[name]
			out := g.fam(f.Name, f.Help, f.Kind, "", f.Scale)
			out.Raw = true
			for _, cell := range f.Cells {
				labels := pair
				switch {
				case f.Raw && cell.Label != "":
					labels += "," + cell.Label
				case f.Label != "":
					labels += "," + f.Label + `="` + escapeLabel(cell.Label) + `"`
				}
				cell.Label = labels
				out.Cells = append(out.Cells, cell)
			}
		}
	}
}

// family is one registered metric family. The handle maps are only
// mutated under the registry mutex; hot-path access goes through
// handles callers keep, or the lock-free cells map of a Vec.
type family struct {
	name  string
	help  string
	kind  Kind
	label string  // label key for Vec families, "" otherwise
	scale float64 // histogram render multiplier (e.g. µs → s = 1e-6)

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
	cells   *sync.Map // label value → *Histogram (HistogramVec families)
}

// Registry holds metric families and collectors. Registration takes a
// mutex; recording through the returned handles is lock-free.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register adds fam or returns the existing family with the same name.
// Re-registering with a different kind or label key panics: two call
// sites disagreeing about a metric's shape is a programming error.
func (r *Registry) register(fam *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.families[fam.name]; ok {
		if old.kind != fam.kind || old.label != fam.label {
			panic(fmt.Sprintf("metrics: %s re-registered as %s/%q (was %s/%q)",
				fam.name, fam.kind, fam.label, old.kind, old.label))
		}
		return old
	}
	r.families[fam.name] = fam
	return fam
}

// Counter registers (or finds) an unlabelled counter family and
// returns its handle.
func (r *Registry) Counter(name, help string) *Counter {
	fam := r.register(&family{name: name, help: help, kind: KindCounter, counter: &Counter{}})
	return fam.counter
}

// Gauge registers an unlabelled gauge family and returns its handle.
func (r *Registry) Gauge(name, help string) *Gauge {
	fam := r.register(&family{name: name, help: help, kind: KindGauge, gauge: &Gauge{}})
	return fam.gauge
}

// GaugeFunc registers a gauge whose value is computed at snapshot time.
// fn must be safe for concurrent use and should return quickly; it is
// the natural shape for "current depth of some queue" gauges.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: KindGauge, gaugeFn: fn})
}

// Histogram registers an unlabelled histogram family. scale multiplies
// recorded values at render time (record microseconds, scale 1e-6,
// expose seconds); zero means 1.
func (r *Registry) Histogram(name, help string, scale float64) *Histogram {
	fam := r.register(&family{name: name, help: help, kind: KindHistogram, scale: scale, hist: &Histogram{}})
	return fam.hist
}

// HistogramVec registers a histogram family keyed by one label.
func (r *Registry) HistogramVec(name, help, label string, scale float64) *HistogramVec {
	fam := r.register(&family{name: name, help: help, kind: KindHistogram, label: label, scale: scale, cells: &sync.Map{}})
	return &HistogramVec{fam: fam}
}

// RegisterCollector adds a snapshot-time collector.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ fam *family }

// With returns the histogram cell for one label value, creating it on
// first use. Lookup is a sync.Map read: lock-free after creation.
func (v *HistogramVec) With(value string) *Histogram {
	if h, ok := v.fam.cells.Load(value); ok {
		return h.(*Histogram)
	}
	h, _ := v.fam.cells.LoadOrStore(value, &Histogram{})
	return h.(*Histogram)
}

// Snapshot materialises every registered family and collector into a
// deterministic, immutable view: families sorted by name, cells sorted
// by label value. The registry mutex is held only to copy the family
// and collector lists; reading the atomics and running the collectors
// happens outside it, and rendering happens entirely on the snapshot.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	collectors := make([]Collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	g := &Gatherer{fams: map[string]*Family{}, order: make([]string, 0, len(fams))}
	for _, f := range fams {
		g.addRegistered(f)
	}
	for _, c := range collectors {
		c(g)
	}
	return g.snapshot()
}

// Gatherer accumulates one snapshot's families. Collectors publish
// through it; registered families are folded in by Registry.Snapshot.
type Gatherer struct {
	fams  map[string]*Family
	order []string
}

func (g *Gatherer) fam(name, help string, kind Kind, label string, scale float64) *Family {
	if f, ok := g.fams[name]; ok {
		// Merging cells into an existing family is allowed (a collector
		// adding label values); changing its shape is not.
		if f.Kind != kind {
			panic(fmt.Sprintf("metrics: snapshot family %s gathered as %s and %s", name, f.Kind, kind))
		}
		return f
	}
	f := &Family{Name: name, Help: help, Kind: kind, Label: label, Scale: scale}
	g.fams[name] = f
	g.order = append(g.order, name)
	return f
}

// addRegistered folds one registered family's current values in.
func (g *Gatherer) addRegistered(f *family) {
	out := g.fam(f.name, f.help, f.kind, f.label, f.scale)
	switch {
	case f.counter != nil:
		out.Cells = append(out.Cells, Cell{Value: float64(f.counter.Value())})
	case f.gauge != nil:
		out.Cells = append(out.Cells, Cell{Value: f.gauge.Value()})
	case f.gaugeFn != nil:
		out.Cells = append(out.Cells, Cell{Value: f.gaugeFn()})
	case f.hist != nil:
		h := f.hist.Snapshot()
		out.Cells = append(out.Cells, Cell{Hist: &h})
	case f.cells != nil:
		f.cells.Range(func(k, v any) bool {
			h := v.(*Histogram).Snapshot()
			out.Cells = append(out.Cells, Cell{Label: k.(string), Hist: &h})
			return true
		})
	}
}

// Counter publishes one unlabelled counter value.
func (g *Gatherer) Counter(name, help string, v uint64) {
	f := g.fam(name, help, KindCounter, "", 0)
	f.Cells = append(f.Cells, Cell{Value: float64(v)})
}

// Gauge publishes one unlabelled gauge value.
func (g *Gatherer) Gauge(name, help string, v float64) {
	f := g.fam(name, help, KindGauge, "", 0)
	f.Cells = append(f.Cells, Cell{Value: v})
}

// CounterL publishes one cell of a labelled counter family.
func (g *Gatherer) CounterL(name, help, label, value string, v uint64) {
	f := g.fam(name, help, KindCounter, label, 0)
	f.Cells = append(f.Cells, Cell{Label: value, Value: float64(v)})
}

// GaugeL publishes one cell of a labelled gauge family.
func (g *Gatherer) GaugeL(name, help, label, value string, v float64) {
	f := g.fam(name, help, KindGauge, label, 0)
	f.Cells = append(f.Cells, Cell{Label: value, Value: v})
}

// GaugeRaw publishes a gauge cell with a pre-rendered label set (a
// `k="v",k2="v2"` string) — the build-info idiom, where one metric
// carries several constant labels.
func (g *Gatherer) GaugeRaw(name, help, rawLabels string, v float64) {
	f := g.fam(name, help, KindGauge, "", 0)
	f.Raw = true
	f.Cells = append(f.Cells, Cell{Label: rawLabels, Value: v})
}

// Histogram publishes one unlabelled distribution. scale multiplies
// values at render time (zero means 1).
func (g *Gatherer) Histogram(name, help string, scale float64, h stats.Histogram) {
	f := g.fam(name, help, KindHistogram, "", scale)
	f.Cells = append(f.Cells, Cell{Hist: &h})
}

// snapshot freezes the gathered families in deterministic order.
func (g *Gatherer) snapshot() Snapshot {
	sort.Strings(g.order)
	s := Snapshot{Families: make([]Family, 0, len(g.order))}
	for _, name := range g.order {
		f := g.fams[name]
		sort.SliceStable(f.Cells, func(i, j int) bool { return f.Cells[i].Label < f.Cells[j].Label })
		s.Families = append(s.Families, *f)
	}
	return s
}
