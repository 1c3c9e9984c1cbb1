// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the index). Each experiment declares
// the (workload, policy, config) simulations it needs — they run in
// parallel, with per-process memoisation so figures sharing a sweep
// reuse it — and renders the same rows/series the paper reports.
package experiments

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"

	"mellow/internal/config"
	"mellow/internal/core"
	"mellow/internal/engine"
	"mellow/internal/metrics"
	"mellow/internal/policy"
	"mellow/internal/sched"
	"mellow/internal/sim"
	"mellow/internal/trace"
	"mellow/internal/xtrace"
)

// Options control how an experiment declares and renders its cells.
type Options struct {
	// Cfg is the base configuration; experiments override policy- or
	// sweep-specific fields (banks, ExpoFactor) but keep run lengths.
	Cfg config.Config
	// Out receives the rendered tables.
	Out io.Writer
	// Workloads restricts the benchmark suite (default: all 11).
	Workloads []string
}

// workloads resolves the active suite.
func (o Options) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return trace.Names()
}

// Experiment is one reproducible artifact of the paper: a declaration
// of the cells it simulates and a renderer of their results. Every
// caller runs it in three steps: Cells, then RunCells on those cells,
// then Render on their results.
type Experiment struct {
	// ID is the short handle, e.g. "fig11" or "tab4".
	ID string
	// Title names the paper artifact.
	Title string
	// declare lists the cells under o (nil: the experiment simulates
	// nothing).
	declare func(o Options) ([]Cell, error)
	// render writes the output to o.Out, reading the results by cell;
	// work it does itself stops with ctx's error when ctx ends.
	render func(ctx context.Context, o Options, s Sweep) error
}

// Cells declares e's simulations under o, in the order Render reads
// their results. A static table declares none.
func (e Experiment) Cells(o Options) ([]Cell, error) {
	if e.declare == nil {
		return nil, nil
	}
	return e.declare(o)
}

// Render writes e's output to o.Out from res, the results of the cells
// Cells declared under the same o, in cell order. A static table
// computes its rows here, and stops with ctx's error when ctx ends.
func (e Experiment) Render(ctx context.Context, o Options, cells []Cell, res []Instrumented) error {
	return e.render(ctx, o, NewSweep(cells, res))
}

// registry lists all experiments in paper order.
var registry = []Experiment{
	{"tab4", "Table IV: workload MPKI with a 2 MB LLC", nil, renderTable4},
	{"tab6", "Table VI: energy per operation of memristive main memory", nil, renderTable6},
	{"fig1", "Figure 1: write latency / endurance trade-off", nil, renderFig1},
	{"fig2", "Figure 2: IPC and lifetime under static write latencies", onSuite(fig2Specs), renderFig2},
	{"fig3", "Figure 3: bank utilization with normal writes", onSuite(normOnly), renderFig3},
	{"fig10", "Figure 10: IPC by write policy", EvalSweep, renderFig10},
	{"fig11", "Figure 11: memory lifetime by write policy (years)", EvalSweep, renderFig11},
	{"fig12", "Figure 12: bank utilization by write policy", EvalSweep, renderFig12},
	{"fig13", "Figure 13: write drain time by write policy", EvalSweep, renderFig13},
	{"fig14", "Figure 14: memory requests from the LLC", EvalSweep, renderFig14},
	{"fig15", "Figure 15: requests issued to memory banks", EvalSweep, renderFig15},
	{"fig16", "Figure 16: main memory energy consumption", EvalSweep, renderFig16},
	{"fig17", "Figure 17: lifetime sensitivity to ExpoFactor", fig17Cells, renderFig17},
	{"fig18", "Figure 18: sensitivity to bank-level parallelism (GemsFDTD)", fig18Cells, renderFig18},
	{"fig19", "Figure 19: BE-Mellow+SC+WQ vs static policies", onSuite(fig19Specs), renderFig19},
}

// All returns every experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// runKey identifies one simulation for memoisation: a SHA-256 digest of
// everything the simulation's bytes depend on, plus the mix core count
// the scheduler weighs it by. The workload enters as its result label
// plus the content hash of its trace.Spec, so a builtin and an inline
// spec with the same name and parameterization share one entry; a mix
// enters as every core's label and hash, in core order. Observed runs
// key on their sampling period too: the stored epoch series is part of
// the memoised value, and equal keys must yield equal bytes. The key is
// a fixed 40 bytes however large the config, so a memo entry costs its
// packed value, not its key.
type runKey struct {
	sum [sha256.Size]byte
	mix int // cores of a multiprogrammed mix, 0 for one workload
}

// keyFor digests a cell's identity: the canonical config JSON, the
// policy name, the mix core count, each workload's label and spec hash
// in core order, the epoch and the metrics and trace flags. Every
// variable-length field is length-prefixed and the number of workloads
// follows from the core count, so no two different cells encode to the
// same bytes. Cell.Variant and Cell.Policy only label records and stay
// out.
func keyFor(c Cell, ob Observation) (runKey, error) {
	ws := c.Mix
	if len(ws) == 0 {
		ws = []trace.Workload{c.Workload}
	}
	cfg, err := c.Cfg.CanonicalJSON()
	if err != nil {
		panic(fmt.Sprintf("experiments: config not serialisable: %v", err))
	}
	enc := appendField(make([]byte, 0, len(cfg)+256), cfg)
	enc = appendField(enc, c.Spec.Name)
	enc = binary.AppendUvarint(enc, uint64(len(c.Mix)))
	for _, w := range ws {
		if w.Spec == nil {
			return runKey{}, fmt.Errorf("experiments: workload %q has no spec", w.Name)
		}
		h, err := w.Spec.Hash()
		if err != nil {
			return runKey{}, err
		}
		enc = appendField(appendField(enc, w.Name), h)
	}
	enc = binary.AppendUvarint(enc, uint64(ob.Epoch))
	enc = append(enc, boolByte(ob.Metrics), boolByte(ob.Trace))
	return runKey{sum: sha256.Sum256(enc), mix: len(c.Mix)}, nil
}

// appendField appends f to b behind its length.
func appendField[T string | []byte](b []byte, f T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(f))), f...)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// DefaultCacheCap bounds the memoisation cache so a long-lived process
// (the mellowd daemon) does not grow without limit. At the cap a plain
// entry keeps ~580 B live, its result packed into ~370 bytes, so the
// default costs ~2.4 MB; an observed entry adds ~65 B for each epoch
// sample (TestMemoFootprint). Holding the result unpacked, an entry kept
// ~1.3 KB and an epoch sample 200 B.
const DefaultCacheCap = 4096

// CacheStats reports the memoisation cache's behaviour. A "hit" counts
// both finished-result reuse and joining a simulation already in
// flight (singleflight); only simulations actually started count as
// misses.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries, InFlight       int
	// Running counts simulations executing right now — flights that hold
	// a scheduler slot, as opposed to InFlight, which also counts
	// flights queued for one. PeakRunning is its high-water mark: with
	// scheduler budget B, PeakRunning <= B always holds.
	Running, PeakRunning int
	// Panics counts simulations whose panic was contained and turned
	// into a failed run.
	Panics uint64
}

// flight is one in-progress simulation that concurrent callers join.
type flight struct {
	done chan struct{}
	res  Instrumented
	err  error
}

// simCache memoises finished simulations (bounded, FIFO eviction) and
// deduplicates concurrent identical runs.
type simCache struct {
	mu       sync.Mutex
	cap      int
	entries  map[runKey]*entry
	order    keyRing // insertion order, for eviction
	inflight map[runKey]*flight
	hits     uint64
	misses   uint64
	evicted  uint64
	panics   uint64 // simulations that panicked and were contained
	running  int    // flights holding a scheduler slot right now
	peakRun  int    // high-water mark of running
}

func newSimCache(cap int) *simCache {
	return &simCache{
		cap:      cap,
		entries:  map[runKey]*entry{},
		inflight: map[runKey]*flight{},
	}
}

var memo = newSimCache(DefaultCacheCap)

// do writes into the zero *dst the memoised result for key, unpacked
// afresh, or joins an identical simulation already in flight, or runs
// fn itself and publishes the result packed; *dst stays zero on
// failure. A caller waiting on someone else's flight aborts with ctx's
// error when cancelled; the flight itself keeps running for the
// others. A flight that failed only because its runner's context ended
// is not the joiner's failure: a joiner whose own ctx is still live
// retries, and either joins a newer flight or runs the simulation
// itself.
//
// The executing caller acquires scheduler slots (see run) before fn
// runs, so total concurrent simulation work never exceeds the sched
// budget regardless of how many sweeps or jobs fan out at once. Cache
// hits and singleflight joins never consume a slot. If the executing
// caller's context ends while it is queued for a slot, the flight fails
// with that error (and joiners retry as above). A panic in fn fails the
// flight with a stable error: it is not memoised and every joiner sees
// it.
func (c *simCache) do(ctx context.Context, key runKey, dst *Instrumented, fn func() (Instrumented, error)) error {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.hits++
			c.mu.Unlock()
			e.unpack(dst)
			return nil
		}
		f, ok := c.inflight[key]
		if !ok {
			break // c.mu stays held: this caller runs the flight
		}
		c.hits++
		c.mu.Unlock()
		select {
		case <-f.done:
			if isCtxErr(f.err) && ctx.Err() == nil {
				continue
			}
			if f.err == nil {
				*dst = f.res
			}
			return f.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	c.misses++
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.res, f.err = c.run(ctx, key, fn)
	var e *entry
	if f.err == nil {
		// Packed outside the lock. A result the packer cannot carry
		// (TestMemoCodecs) is served but not memoised.
		e, _ = packEntry(&f.res)
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if e != nil {
		c.insert(key, e)
	}
	c.mu.Unlock()
	close(f.done)
	if f.err == nil {
		*dst = f.res
	}
	return f.err
}

// run executes fn under its scheduler slots, turning a panic into an
// error; the slots and the running count are released on every path.
// A mix models key.mix cores against one memory system, so it holds
// that many slots; every other simulation holds one.
func (c *simCache) run(ctx context.Context, key runKey, fn func() (Instrumented, error)) (res Instrumented, err error) {
	release, err := sched.Default().Acquire(ctx, int64(max(key.mix, 1)))
	if err != nil {
		return Instrumented{}, err
	}
	c.noteRunning(+1)
	defer func() {
		c.noteRunning(-1)
		release()
		if p := recover(); p != nil {
			c.mu.Lock()
			c.panics++
			c.mu.Unlock()
			res, err = Instrumented{}, fmt.Errorf("experiments: simulation panicked: %v", p)
		}
	}()
	return fn()
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// noteRunning tracks how many flights hold a scheduler slot, and the
// high-water mark — the budget test's witness that concurrent
// simulations never exceed the sched budget.
func (c *simCache) noteRunning(d int) {
	c.mu.Lock()
	c.running += d
	if c.running > c.peakRun {
		c.peakRun = c.running
	}
	c.mu.Unlock()
}

// insert stores a finished result, evicting oldest-first past the cap.
// Callers hold c.mu.
func (c *simCache) insert(key runKey, r *entry) {
	if _, ok := c.entries[key]; ok {
		c.entries[key] = r
		return
	}
	for c.cap > 0 && len(c.entries) >= c.cap {
		delete(c.entries, c.order.pop())
		c.evicted++
	}
	c.entries[key] = r
	c.order.push(key)
}

// keyRing is a FIFO of memo keys in a circular buffer. It grows only
// while it holds more keys than ever before, so a cache at its cap
// evicts and inserts without allocating or retaining evicted keys.
type keyRing struct {
	buf  []runKey
	head int // index of the oldest key
	n    int
}

func (r *keyRing) push(k runKey) {
	if r.n == len(r.buf) {
		buf := make([]runKey, max(2*len(r.buf), 16))
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = k
	r.n++
}

// pop removes and returns the oldest key; the ring must not be empty.
func (r *keyRing) pop() runKey {
	k := r.buf[r.head]
	r.buf[r.head] = runKey{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return k
}

func (c *simCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evicted,
		Entries: len(c.entries), InFlight: len(c.inflight),
		Running: c.running, PeakRunning: c.peakRun, Panics: c.panics,
	}
}

func (c *simCache) reset(cap int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = cap
	c.entries = map[runKey]*entry{}
	c.order = keyRing{}
	c.hits, c.misses, c.evicted, c.panics = 0, 0, 0, 0
	c.peakRun = c.running
	// in-flight simulations publish into the fresh maps when they land.
	c.inflight = map[runKey]*flight{}
}

// ResetCache drops memoised simulation results and counters (tests).
func ResetCache() {
	memo.mu.Lock()
	cap := memo.cap
	memo.mu.Unlock()
	memo.reset(cap)
}

// SetCacheCap bounds the number of memoised results (<= 0: unbounded)
// and applies on the next insertion; it does not shrink eagerly.
func SetCacheCap(n int) {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	memo.cap = n
}

// CacheSnapshot reports hit/miss/eviction counters and current
// occupancy of the memoisation cache.
func CacheSnapshot() CacheStats { return memo.stats() }

// CacheCollector returns a read-only metrics collector publishing the
// memoisation cache's counters and occupancy under the given prefix —
// the registry face of CacheSnapshot.
func CacheCollector(prefix string) metrics.Collector {
	return func(g *metrics.Gatherer) {
		cs := memo.stats()
		g.Counter(prefix+"simcache_hits_total", "Simulation memo-cache hits (incl. singleflight joins).", cs.Hits)
		g.Counter(prefix+"simcache_misses_total", "Simulations actually executed.", cs.Misses)
		g.Counter(prefix+"simcache_evictions_total", "Memoised simulations evicted by the cap.", cs.Evictions)
		g.Gauge(prefix+"simcache_entries", "Memoised simulation results held.", float64(cs.Entries))
		g.Gauge(prefix+"simcache_inflight", "Deduplicated simulations in flight (running or queued for a scheduler slot).", float64(cs.InFlight))
		g.Gauge(prefix+"sims_running", "Simulations executing right now (holding a scheduler slot).", float64(cs.Running))
		g.Counter(prefix+"sim_panics_total", "Simulations that panicked; each failed its run instead of the process.", cs.Panics)
	}
}

// Observation configures an observed simulation run.
type Observation struct {
	// Epoch, when positive, is the sampling period in ticks at which the
	// run collects its epoch series (0: an unobserved run).
	Epoch sim.Tick
	// OnEpoch, when set on an observed run, is called synchronously with
	// every epoch sample the run closes, in order — the one live feed,
	// behind mellowd's SSE streaming and live progress. It is a
	// per-caller observer that never enters the memo key; a memo hit or
	// a joined in-flight run sees no live samples (callers stream the
	// memoised series on completion instead). The samples delivered here
	// are the same values collected into the returned series, so a live
	// consumer and a reader of the final result observe byte-identical
	// data.
	OnEpoch func(engine.EpochSample)
	// Metrics, when set, attaches a per-run metrics registry: cpu,
	// cache, mem and wear publish their counters as collectors and the
	// run's deterministic snapshot is memoised alongside the result.
	Metrics bool
	// Trace, when set, records the run's execution timeline (engine
	// phases, epochs, per-bank controller events) into a bounded ring
	// and memoises it alongside the result. The timeline recorder is an
	// append-only observer: a traced run's result and series are
	// bit-identical to an untraced run's.
	Trace bool
}

// Instrumented bundles everything one memoised simulation can produce.
// A memo hit unpacks Result, Series and Mix into private copies; only
// the joiners of one flight share the values its runner produced, so
// those must not be modified. Metrics and Trace are shared with the
// memo cache and must never be modified.
type Instrumented struct {
	Result  core.Result
	Series  []engine.EpochSample
	Metrics *metrics.Snapshot
	Trace   *xtrace.SimTrace
	// Mix is a mix cell's result (nil otherwise; Result is then zero).
	Mix *core.MixResult
}

// Run is the memoised, deduplicated simulation entry point — the
// primitive the figure sweeps, scenarios and the mellowd service build
// on. An identical (cell, observation) key simulates at most once
// concurrently and its result is reused across callers. A zero
// Observation is a plain run. Epoch observation when ob.Epoch > 0, a
// per-run metrics snapshot when ob.Metrics and an execution timeline
// when ob.Trace are all stored with the memoised value (every observer
// is deterministic or, for the timeline, read-only, so equal keys still
// yield equal result bytes). A mix cell is observed like any other: its
// series sums the cores' counters. Resolve builtin names with
// trace.ByName first.
func Run(ctx context.Context, c Cell, ob Observation) (Instrumented, error) {
	var ins Instrumented
	err := runInto(ctx, c, ob, &ins)
	return ins, err
}

// runInto is Run writing its result into the zero *dst, which it leaves
// zero on failure. RunCells passes each cell's result slot, so a memo
// hit unpacks straight into it.
func runInto(ctx context.Context, c Cell, ob Observation, dst *Instrumented) error {
	key, err := keyFor(c, ob)
	if err != nil {
		return err
	}
	return memo.do(ctx, key, dst, func() (Instrumented, error) {
		opts := engine.Options{Epoch: ob.Epoch, OnEpoch: ob.OnEpoch}
		var reg *metrics.Registry
		if ob.Metrics {
			reg = metrics.NewRegistry()
			opts.Metrics = reg
		}
		var rec *xtrace.Recorder
		if ob.Trace {
			rec = xtrace.NewRecorder(0)
			opts.Timeline = rec
			defer rec.Discard() // a no-op once finalized
		}
		var ins Instrumented
		var err error
		if len(c.Mix) > 0 {
			var m core.MixResult
			m, ins.Series, err = core.RunMix(ctx, c.Cfg, c.Spec, c.Mix, opts)
			ins.Mix = &m
		} else {
			ins.Result, ins.Series, err = core.Run(ctx, c.Cfg, c.Spec, c.Workload, opts)
		}
		if err != nil {
			return Instrumented{}, err
		}
		if reg != nil {
			snap := reg.Snapshot()
			ins.Metrics = &snap
		}
		if rec != nil {
			ins.Trace = rec.Finalize(c.Label(), c.Spec.Name, c.Cfg.Memory.Banks())
		}
		return ins, nil
	})
}

// SeriesRecord labels one simulation's epoch series for export.
type SeriesRecord struct {
	// Variant is the cell's matrix variant ("" in a one-configuration
	// matrix).
	Variant  string               `json:"variant,omitempty"`
	Workload string               `json:"workload"`
	Policy   string               `json:"policy"`
	Series   []engine.EpochSample `json:"series"`
}

// Records builds an observed batch's series records: one per cell in
// cell order, each the cell's Record carrying its series.
func Records(cells []Cell, ins []Instrumented) []SeriesRecord {
	recs := make([]SeriesRecord, len(cells))
	for i, c := range cells {
		recs[i] = c.Record()
		recs[i].Series = ins[i].Series
	}
	return recs
}

// Report is the machine-readable rendering of one experiment, shared by
// mellowd experiment jobs and `mellowbench -json`.
type Report struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Output string `json:"output"`
	// Series carries the records of an observed run (mellowbench
	// -interval, interval_ns jobs), in cell order.
	Series []SeriesRecord `json:"series,omitempty"`
}

// Cell is one simulation of a matrix: a configuration, a policy and a
// resolved workload, or a multiprogrammed mix of resolved workloads.
type Cell struct {
	Cfg      config.Config
	Spec     policy.Spec
	Workload trace.Workload
	// Mix, when set, runs one core per workload against a shared memory
	// system instead of Workload.
	Mix []trace.Workload
	// Variant labels the cell's configuration within its matrix, and
	// Policy its policy as the declaration spelled it ("": Spec.Name).
	// They name the cell's records and never enter the memo key.
	Variant, Policy string
}

// Label names the cell's simulation on its records, spans and timeline:
// the workload's name, or the mix's core names joined by "+".
func (c Cell) Label() string {
	if len(c.Mix) == 0 {
		return c.Workload.Name
	}
	names := make([]string, len(c.Mix))
	for i, w := range c.Mix {
		names[i] = w.Name
	}
	return strings.Join(names, "+")
}

// Record is the cell's series record before it has a series: its
// variant, its Label and its policy as declared.
func (c Cell) Record() SeriesRecord {
	return SeriesRecord{Variant: c.Variant, Workload: c.Label(), Policy: cmp.Or(c.Policy, c.Spec.Name)}
}

// Hooks observe a RunCells matrix cell by cell; every hook is optional.
type Hooks struct {
	// Start runs in cell i's goroutine just before its simulation and
	// returns the cell's Observation (zero: a plain run).
	Start func(i int) Observation
	// Done fires exactly once for every cell: after its simulation for a
	// started cell, or with the context's error for a cell that never
	// started because the matrix was already cancelled. Calls come from
	// RunCells' own goroutine, one at a time, in completion order.
	Done func(i int, ins Instrumented, err error)
}

// RunCells is the one matrix runner behind the experiments, scenarios
// and the mellowd service. Every cell runs through Run in its own
// goroutine, so the memo, singleflight and the process-wide scheduler
// budget (not the fan-out) govern what simulates when; a one-cell
// batch, with nothing to run beside, runs on the caller's goroutine.
// Results land in cell order however the cells finish. The first error
// is the one returned and cancels the sibling cells; once ctx is done
// no further cell starts.
func RunCells(ctx context.Context, cells []Cell, h Hooks) ([]Instrumented, error) {
	out := make([]Instrumented, len(cells))
	if len(cells) == 1 {
		err := runCell(ctx, cells[0], 0, h, &out[0])
		if h.Done != nil {
			h.Done(0, out[0], err)
		}
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		i   int
		err error
	}
	// Each cell's goroutine fills its own slot of out before it reports
	// on done, which is sized to the number of sends, so no cell
	// goroutine ever blocks.
	done := make(chan outcome, len(cells))
	for i, c := range cells {
		go func(i int, c Cell) {
			done <- outcome{i, runCell(ctx, c, i, h, &out[i])}
		}(i, c)
	}
	var firstErr error
	for range cells {
		o := <-done
		if o.err != nil && firstErr == nil {
			firstErr = o.err
			cancel()
		}
		if h.Done != nil {
			h.Done(o.i, out[o.i], o.err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// runCell runs cell i of a batch into dst under the batch's Start hook,
// or returns ctx's error if the batch is already cancelled.
func runCell(ctx context.Context, c Cell, i int, h Hooks, dst *Instrumented) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var ob Observation
	if h.Start != nil {
		ob = h.Start(i)
	}
	return runInto(ctx, c, ob, dst)
}

// variant is one labelled configuration of a matrix.
type variant struct {
	label string
	cfg   config.Config
}

// cross is the one cell enumerator behind every experiment and every
// compiled scenario: each workload × variant × policy, in that order.
// A workload entry of several workloads runs them as one mix.
func cross(workloads [][]trace.Workload, variants []variant, specs []policy.Spec) []Cell {
	cells := make([]Cell, 0, len(workloads)*len(variants)*len(specs))
	for _, ws := range workloads {
		for _, v := range variants {
			for _, s := range specs {
				c := Cell{Cfg: v.cfg, Spec: s, Variant: v.label}
				if len(ws) == 1 {
					c.Workload = ws[0]
				} else {
					c.Mix = ws
				}
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// grid declares specs over the named builtin workloads, under each of
// variants (none: o.Cfg alone, labelled "").
func (o Options) grid(names []string, specs []policy.Spec, variants ...variant) ([]Cell, error) {
	mixes := make([][]string, len(names))
	for i, name := range names {
		mixes[i] = []string{name}
	}
	return o.mixes(mixes, specs, variants...)
}

// mixes is grid over multiprogrammed mixes of builtin workloads: each
// entry of names lists a mix's cores, and a single core runs alone.
func (o Options) mixes(names [][]string, specs []policy.Spec, variants ...variant) ([]Cell, error) {
	ws := make([][]trace.Workload, len(names))
	for i, mix := range names {
		for _, name := range mix {
			w, err := trace.ByName(name)
			if err != nil {
				return nil, err
			}
			ws[i] = append(ws[i], w)
		}
	}
	if len(variants) == 0 {
		variants = []variant{{cfg: o.Cfg}}
	}
	return cross(ws, variants, specs), nil
}

// vary labels o.Cfg with set applied as one variant of a matrix.
func (o Options) vary(label string, set func(*config.Config)) variant {
	cfg := o.Cfg
	set(&cfg)
	return variant{label, cfg}
}

// onSuite declares the specs line-up over the active suite on o.Cfg.
func onSuite(specs func() []policy.Spec) func(Options) ([]Cell, error) {
	return func(o Options) ([]Cell, error) { return o.grid(o.workloads(), specs()) }
}

// EvalSweep declares the Figure 10–16 policy line-up
// (policy.EvaluationSet) over the active suite on o.Cfg.
func EvalSweep(o Options) ([]Cell, error) { return onSuite(policy.EvaluationSet)(o) }

// Sweep holds a batch's results in cell order, and by (variant label,
// policy name, workload). A one-configuration matrix labels its variant
// "".
type Sweep struct {
	res []Instrumented
	at  map[sweepKey]int
	// variants lists the batch's variant labels in declared order.
	variants []string
}

type sweepKey struct{ variant, policy, workload string }

// NewSweep indexes res, the results of cells in cell order.
func NewSweep(cells []Cell, res []Instrumented) Sweep {
	s := Sweep{res: res, at: make(map[sweepKey]int, len(cells))}
	for i, c := range cells {
		if !slices.Contains(s.variants, c.Variant) {
			s.variants = append(s.variants, c.Variant)
		}
		s.at[sweepKey{c.Variant, c.Spec.Name, c.Label()}] = i
	}
	return s
}

// At returns one cell's result (zero if the batch has no such cell).
func (s Sweep) At(variant, policy, workload string) core.Result {
	i, ok := s.at[sweepKey{variant, policy, workload}]
	if !ok {
		return core.Result{}
	}
	return s.res[i].Result
}
