// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the index). Each experiment runs the
// required (workload, policy, config) simulations — in parallel, with
// per-process memoisation so figures sharing a sweep reuse it — and
// prints the same rows/series the paper reports.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
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

// Options control an experiment run.
type Options struct {
	// Ctx cancels the run: simulations abort at their next checkpoint
	// and the experiment returns ctx's error (default: Background).
	Ctx context.Context
	// Cfg is the base configuration; experiments override policy- or
	// sweep-specific fields (banks, ExpoFactor) but keep run lengths.
	Cfg config.Config
	// Out receives the rendered tables.
	Out io.Writer
	// Workloads restricts the benchmark suite (default: all 11).
	Workloads []string
	// Hooks observe the experiment's simulations. Every simulating
	// experiment runs its matrix as one RunCells batch, so an experiment
	// is observed exactly like a sim, compare or scenario matrix.
	Hooks Hooks
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// workloads resolves the active suite.
func (o Options) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return trace.Names()
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	// ID is the short handle, e.g. "fig11" or "tab4".
	ID string
	// Title names the paper artifact.
	Title string
	// Run executes the experiment and renders its output.
	Run func(Options) error
}

// registry lists all experiments in paper order.
var registry = []Experiment{
	{"tab4", "Table IV: workload MPKI with a 2 MB LLC", runTable4},
	{"tab6", "Table VI: energy per operation of memristive main memory", runTable6},
	{"fig1", "Figure 1: write latency / endurance trade-off", runFig1},
	{"fig2", "Figure 2: IPC and lifetime under static write latencies", runFig2},
	{"fig3", "Figure 3: bank utilization with normal writes", runFig3},
	{"fig10", "Figure 10: IPC by write policy", runFig10},
	{"fig11", "Figure 11: memory lifetime by write policy (years)", runFig11},
	{"fig12", "Figure 12: bank utilization by write policy", runFig12},
	{"fig13", "Figure 13: write drain time by write policy", runFig13},
	{"fig14", "Figure 14: memory requests from the LLC", runFig14},
	{"fig15", "Figure 15: requests issued to memory banks", runFig15},
	{"fig16", "Figure 16: main memory energy consumption", runFig16},
	{"fig17", "Figure 17: lifetime sensitivity to ExpoFactor", runFig17},
	{"fig18", "Figure 18: sensitivity to bank-level parallelism (GemsFDTD)", runFig18},
	{"fig19", "Figure 19: BE-Mellow+SC+WQ vs static policies", runFig19},
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

// runKey identifies one simulation for memoisation. The workload keys
// on its result label plus the content hash of its trace.Spec, so a
// builtin and an inline spec with the same name and parameterization
// share one entry; a mix keys on every core's label and hash, in core
// order. Observed runs key on their sampling period and per-bank-damage
// flag too: the stored epoch series is part of the memoised value, and
// equal keys must yield equal bytes.
type runKey struct {
	cfg        string // canonical JSON of the config
	policy     string
	workload   string   // result label; a mix's labels joined by NUL
	spec       string   // content hash of the trace.Spec; a mix's joined by NUL
	mix        int      // cores of a multiprogrammed mix, 0 for one workload
	epoch      sim.Tick // 0 for unobserved runs
	bankDamage bool
	metrics    bool // per-run metrics snapshot stored with the value
	trace      bool // execution timeline stored with the value
}

func keyFor(c Cell, ob Observation) (runKey, error) {
	ws := c.Mix
	if len(ws) == 0 {
		ws = []trace.Workload{c.Workload}
	}
	names, hashes := make([]string, len(ws)), make([]string, len(ws))
	for i, w := range ws {
		if w.Spec == nil {
			return runKey{}, fmt.Errorf("experiments: workload %q has no spec", w.Name)
		}
		h, err := w.Spec.Hash()
		if err != nil {
			return runKey{}, err
		}
		names[i], hashes[i] = w.Name, h
	}
	b, err := c.Cfg.CanonicalJSON()
	if err != nil {
		panic(fmt.Sprintf("experiments: config not serialisable: %v", err))
	}
	return runKey{cfg: string(b), policy: c.Spec.Name,
		workload: strings.Join(names, "\x00"), spec: strings.Join(hashes, "\x00"), mix: len(c.Mix),
		epoch: ob.Epoch, bankDamage: ob.BankDamage, metrics: ob.Metrics, trace: ob.Trace}, nil
}

// DefaultCacheCap bounds the memoisation cache so a long-lived process
// (the mellowd daemon) does not grow without limit. At ~1 KB a result,
// the default costs a few MB.
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

// cached is one memoised simulation: the result, plus the epoch series
// for observed runs, the per-run metrics snapshot for instrumented runs,
// the execution timeline for traced runs and the mix result of a mix
// (nil otherwise). Entries are immutable once stored.
type cached struct {
	res    core.Result
	series []engine.EpochSample
	met    *metrics.Snapshot
	trace  *xtrace.SimTrace
	mix    *core.MixResult
}

// flight is one in-progress simulation that concurrent callers join.
type flight struct {
	done chan struct{}
	res  cached
	err  error
}

// simCache memoises finished simulations (bounded, FIFO eviction) and
// deduplicates concurrent identical runs.
type simCache struct {
	mu       sync.Mutex
	cap      int
	entries  map[runKey]cached
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
		entries:  map[runKey]cached{},
		inflight: map[runKey]*flight{},
	}
}

var memo = newSimCache(DefaultCacheCap)

// do returns the memoised result for key, joins an identical simulation
// already in flight, or runs fn itself and publishes the result. A
// caller waiting on someone else's flight aborts with ctx's error when
// cancelled; the flight itself keeps running for the others. A flight
// that failed only because its runner's context ended is not the
// joiner's failure: a joiner whose own ctx is still live retries, and
// either joins a newer flight or runs the simulation itself.
//
// The executing caller acquires scheduler slots (see run) before fn
// runs, so total concurrent simulation work never exceeds the sched
// budget regardless of how many sweeps or jobs fan out at once. Cache
// hits and singleflight joins never consume a slot. If the executing
// caller's context ends while it is queued for a slot, the flight fails
// with that error (and joiners retry as above). A panic in fn fails the
// flight with a stable error: it is not memoised and every joiner sees
// it.
func (c *simCache) do(ctx context.Context, key runKey, fn func() (cached, error)) (cached, error) {
	for {
		c.mu.Lock()
		if r, ok := c.entries[key]; ok {
			c.hits++
			c.mu.Unlock()
			return r, nil
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
			return f.res, f.err
		case <-ctx.Done():
			return cached{}, ctx.Err()
		}
	}
	c.misses++
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.res, f.err = c.run(ctx, key, fn)

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.insert(key, f.res)
	}
	c.mu.Unlock()
	close(f.done)
	return f.res, f.err
}

// run executes fn under its scheduler slots, turning a panic into an
// error; the slots and the running count are released on every path.
// A mix models key.mix cores against one memory system, so it holds
// that many slots; every other simulation holds one.
func (c *simCache) run(ctx context.Context, key runKey, fn func() (cached, error)) (res cached, err error) {
	release, err := sched.Default().Acquire(ctx, int64(max(key.mix, 1)))
	if err != nil {
		return cached{}, err
	}
	c.noteRunning(+1)
	defer func() {
		c.noteRunning(-1)
		release()
		if p := recover(); p != nil {
			c.mu.Lock()
			c.panics++
			c.mu.Unlock()
			res, err = cached{}, fmt.Errorf("experiments: simulation panicked: %v", p)
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
func (c *simCache) insert(key runKey, r cached) {
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
	c.entries = map[runKey]cached{}
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
	// BankDamage includes the per-bank damage vector in every sample.
	BankDamage bool
	// Tracker, when set, receives the run's live progress and epochs.
	// A memo hit or a joined in-flight run only reports completion (the
	// simulating caller's tracker sees the intermediate samples).
	Tracker *engine.Tracker
	// OnEpoch, when set, is called synchronously with every epoch sample
	// the run closes, in order — the live feed behind mellowd's SSE
	// streaming. Like Tracker it is a per-caller observer that never
	// enters the memo key; a memo hit or a joined in-flight run sees no
	// live samples (callers stream the memoised series on completion
	// instead). The samples delivered here are the same values collected
	// into the returned series, so a live consumer and a reader of the
	// final result observe byte-identical data.
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
// Series, Metrics, Trace and Mix are shared with the memo cache and must
// not be modified.
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
// yield equal result bytes). A mix cell runs through core.RunMix and
// takes none of these three. Resolve builtin names with trace.ByName
// first.
func Run(ctx context.Context, c Cell, ob Observation) (Instrumented, error) {
	if len(c.Mix) > 0 && (ob.Epoch > 0 || ob.Metrics || ob.Trace) {
		return Instrumented{}, errors.New("experiments: a mix cell cannot be observed")
	}
	key, err := keyFor(c, ob)
	if err != nil {
		return Instrumented{}, err
	}
	ch, err := memo.do(ctx, key, func() (cached, error) {
		if len(c.Mix) > 0 {
			m, err := core.RunMix(ctx, c.Cfg, c.Spec, c.Mix)
			return cached{mix: &m}, err
		}
		opts := engine.Options{
			Epoch:      ob.Epoch,
			Collect:    ob.Epoch > 0,
			BankDamage: ob.BankDamage,
			Tracker:    ob.Tracker,
			OnEpoch:    ob.OnEpoch,
		}
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
		r, series, err := core.Run(ctx, c.Cfg, c.Spec, c.Workload, opts)
		if err != nil {
			return cached{}, err
		}
		ch := cached{res: r, series: series}
		if reg != nil {
			snap := reg.Snapshot()
			ch.met = &snap
		}
		if rec != nil {
			ch.trace = rec.Finalize(c.Workload.Name, c.Spec.Name, c.Cfg.Memory.Banks())
		}
		return ch, nil
	})
	if err != nil {
		return Instrumented{}, err
	}
	if ob.Tracker != nil {
		// Covers the memo-hit and joined-flight paths; a no-op when this
		// caller ran the simulation itself.
		ob.Tracker.SetProgress(1)
	}
	return Instrumented{Result: ch.res, Series: ch.series, Metrics: ch.met, Trace: ch.trace, Mix: ch.mix}, nil
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

// Records builds an observed batch's series records: one per observed
// cell (every cell but a mix) in cell order, labelled by the cell's
// variant, workload and policy.
func Records(cells []Cell, ins []Instrumented) []SeriesRecord {
	var recs []SeriesRecord
	for i, c := range cells {
		if len(c.Mix) == 0 {
			recs = append(recs, SeriesRecord{Variant: c.Variant, Workload: c.Workload.Name,
				Policy: c.Spec.Name, Series: ins[i].Series})
		}
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
	// Variant labels the cell's configuration within its matrix; it
	// names the cell's records and never enters the memo key.
	Variant string
}

// Hooks observe a RunCells matrix cell by cell; every hook is optional.
type Hooks struct {
	// Plan runs once, before any cell starts, with the whole batch in
	// cell order: its total and each cell's labels. The cells must not
	// be modified.
	Plan func(cells []Cell)
	// Start runs in cell i's goroutine just before its simulation and
	// returns the cell's Observation (zero: a plain run). A mix cell has
	// no series, metrics or timeline to collect: it runs plain whatever
	// Start returns.
	Start func(i int) Observation
	// Done fires exactly once for every cell: after its simulation for a
	// started cell, or with the context's error for a cell that never
	// started because the matrix was already cancelled. Calls come from
	// RunCells' own goroutine, one at a time, in completion order.
	Done func(i int, ins Instrumented, err error)
}

// RunCells is the one matrix runner behind the figure sweeps, scenarios
// and the mellowd service. Every cell runs through Run in its own
// goroutine, so the memo, singleflight and the process-wide scheduler
// budget (not the fan-out) govern what simulates when. Results land in
// cell order however the cells finish. The first error is the one
// returned and cancels the sibling cells; once ctx is done no further
// cell starts.
func RunCells(ctx context.Context, cells []Cell, h Hooks) ([]Instrumented, error) {
	if h.Plan != nil {
		h.Plan(cells)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		i   int
		ins Instrumented
		err error
	}
	// Sized to the number of sends, so no cell goroutine ever blocks.
	done := make(chan outcome, len(cells))
	for i, c := range cells {
		go func(i int, c Cell) {
			if err := ctx.Err(); err != nil {
				done <- outcome{i: i, err: err}
				return
			}
			var ob Observation
			if h.Start != nil {
				ob = h.Start(i)
			}
			if len(c.Mix) > 0 {
				ob = Observation{}
			}
			ins, err := Run(ctx, c, ob)
			done <- outcome{i, ins, err}
		}(i, c)
	}
	out := make([]Instrumented, len(cells))
	var firstErr error
	for range cells {
		o := <-done
		if o.err != nil && firstErr == nil {
			firstErr = o.err
			cancel()
		}
		out[o.i] = o.ins
		if h.Done != nil {
			h.Done(o.i, o.ins, o.err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// variant is one labelled configuration of a declared matrix.
type variant struct {
	label string
	cfg   config.Config
}

// matrix declares simulations: every variant × workload × policy.
type matrix struct {
	variants  []variant
	workloads []string
	specs     []policy.Spec
}

// Sweep holds a matrix's results by (variant label, policy name,
// workload). A one-configuration sweep labels its variant "".
type Sweep map[sweepKey]core.Result

type sweepKey struct{ variant, policy, workload string }

// At returns one cell's result (zero if the matrix has no such cell).
func (s Sweep) At(variant, policy, workload string) core.Result {
	return s[sweepKey{variant, policy, workload}]
}

// runMatrices simulates an experiment's matrices as one RunCells batch
// under o's hooks, so its observers see every cell of the experiment.
func runMatrices(o Options, ms ...matrix) (Sweep, error) {
	var cells []Cell
	var keys []sweepKey
	for _, m := range ms {
		for _, name := range m.workloads {
			w, err := trace.ByName(name)
			if err != nil {
				return nil, err
			}
			for _, v := range m.variants {
				for _, s := range m.specs {
					cells = append(cells, Cell{Cfg: v.cfg, Spec: s, Workload: w, Variant: v.label})
					keys = append(keys, sweepKey{v.label, s.Name, name})
				}
			}
		}
	}
	res, err := RunCells(o.ctx(), cells, o.Hooks)
	if err != nil {
		return nil, err
	}
	out := make(Sweep, len(res))
	for i, r := range res {
		out[keys[i]] = r.Result
	}
	return out, nil
}

// vary labels o.Cfg with set applied as one variant of a matrix.
func (o Options) vary(label string, set func(*config.Config)) variant {
	cfg := o.Cfg
	set(&cfg)
	return variant{label, cfg}
}

// base is the matrix of specs over the active suite on o.Cfg alone.
func (o Options) base(specs ...policy.Spec) matrix {
	return matrix{[]variant{{cfg: o.Cfg}}, o.workloads(), specs}
}

// EvalSweep runs the Figure 10–16 policy line-up over the active suite:
// its one-configuration Sweep, plus the line-up.
func EvalSweep(o Options) (Sweep, []policy.Spec, error) {
	specs := policy.EvaluationSet()
	res, err := runMatrices(o, o.base(specs...))
	return res, specs, err
}
