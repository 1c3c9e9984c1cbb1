// Package cpu models the out-of-order core of Table I as an interval
// (ROB-window) model: instructions dispatch and retire in order at the
// issue width, execution is out of order with unlimited functional
// units, and the pipeline stalls when the reorder buffer fills behind an
// incomplete load. This keeps the three couplings the paper's results
// rest on — read latency exposed at the ROB head, memory-level
// parallelism bounded by MSHRs and the ROB, and write traffic shaped by
// the cache hierarchy — at a cost proportional to memory traffic rather
// than instruction count (see DESIGN.md §3/§4).
package cpu

import (
	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/mem"
	"mellow/internal/metrics"
	"mellow/internal/sim"
	"mellow/internal/trace"
)

// pendingLoad is an in-flight load occupying the ROB (and an MSHR when
// it went to memory).
type pendingLoad struct {
	num      uint64       // instruction number
	req      *mem.Request // nil for L2/L3 hits
	fallback sim.Tick     // completion time when req is nil
}

// loadRing is the FIFO of ROB-resident loads, backed by a reusable
// power-of-two ring. The previous plain-slice FIFO re-sliced on every
// pop, so each later append reallocated — one allocation per retired
// load; the ring allocates only when the ROB's high-water mark grows.
type loadRing struct {
	buf  []pendingLoad
	head int
	n    int
}

func (r *loadRing) len() int              { return r.n }
func (r *loadRing) front() *pendingLoad   { return &r.buf[r.head] }
func (r *loadRing) at(i int) *pendingLoad { return &r.buf[(r.head+i)&(len(r.buf)-1)] }
func (r *loadRing) popFront() (p pendingLoad) {
	p = r.buf[r.head]
	r.buf[r.head] = pendingLoad{} // drop the *mem.Request reference
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *loadRing) pushBack(p pendingLoad) {
	if r.n == len(r.buf) {
		nb := make([]pendingLoad, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = nb, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

// reqRing mirrors the subsequence of ROB-resident loads that carry a
// memory request, in the same FIFO order, so recounting the pending
// demand loads walks at most a few MSHRs' worth of entries rather than
// the whole ROB window.
type reqRing struct {
	buf  []*mem.Request
	head int
	n    int
}

func (r *reqRing) popFront() {
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

func (r *reqRing) pushBack(q *mem.Request) {
	if r.n == len(r.buf) {
		nb := make([]*mem.Request, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = nb, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = q
	r.n++
}

// pending counts entries whose request has not completed.
func (r *reqRing) pending() int {
	n := 0
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		if !r.buf[(r.head+i)&mask].Done() {
			n++
		}
	}
	return n
}

// Core drives the cache hierarchy and memory controller from a workload
// trace. One tick is one core cycle.
//
// The core holds memory reads in four places: the load ring (with its
// req-bearing mirror, which shares the ring's hold), the store-allocate
// fetches, the prefetcher's in-flight FIFO (with its index, likewise)
// and lastLoadReq. Each place owns one mem hold on the request and
// releases it where it drops the request, so the controller can recycle
// the slot once the read is done and no place still refers to it. A
// demand load that attaches to an in-flight prefetch takes holds of its
// own.
//
// The MSHR occupancy counts and the passes over the fetches and the
// prefetch FIFO are memoised on the controller's ReadsDone count.
// Between two read completions no request the core holds changes state,
// and the core only ever pops requests that are done, so while ReadsDone
// stands still the counts move only by the core's own pushes and a pass
// that found nothing done would find nothing again. The one request
// pushed already done without a completion to announce it, a fetch that
// attaches to a finished prefetch, forces the next pass itself.
type Core struct {
	cfg  config.CPU
	hier *cache.Hierarchy
	ctl  *mem.Controller
	gen  trace.Generator

	width     float64
	robSize   uint64
	loadMSHRs int // demand loads (L1 miss-status file)
	mshrLimit int // every outstanding memory read (LLC MSHRs)

	cycles   float64 // dispatch/retire cursor, in cycles (= ticks)
	instrs   uint64
	loads    loadRing       // FIFO of ROB-resident loads
	loadReqs reqRing        // the req-bearing subsequence of loads
	fetches  []*mem.Request // store-allocate fetches (MSHR only)
	// Dependence chain state: the most recent load is either a resolved
	// completion time or a still-pending memory request.
	lastLoad    sim.Tick
	lastLoadReq *mem.Request
	pf          *prefetcher

	loadPending int    // not-done requests in loadReqs
	pfPending   int    // not-done requests in pf.inflight
	countAt     uint64 // ReadsDone when the pending counts were last scanned
	fetchesAt   uint64 // ReadsDone at the last release pass over fetches
	drainAt     uint64 // ReadsDone at the start of the last prefetch drain

	baseCycles float64 // measurement window start
	baseInstrs uint64
}

// New builds a core over an already-wired hierarchy and controller.
func New(cfg config.Config, hier *cache.Hierarchy, ctl *mem.Controller, gen trace.Generator) *Core {
	return &Core{
		cfg:       cfg.CPU,
		hier:      hier,
		ctl:       ctl,
		gen:       gen,
		width:     float64(cfg.CPU.IssueWidth),
		robSize:   uint64(cfg.CPU.ROBEntries),
		loadMSHRs: cfg.Caches.L1.MSHRs,
		mshrLimit: cfg.Caches.L3.MSHRs,
		pf:        newPrefetcher(4),
	}
}

// now returns the dispatch cursor as a tick.
func (c *Core) now() sim.Tick { return sim.Tick(c.cycles) }

// retireLoad waits for the FIFO head's read, advancing the memory clock
// as needed, then pops it, keeping the req-bearing mirror in step, and
// returns its completion time. It releases the load's hold on its
// request.
func (c *Core) retireLoad() sim.Tick {
	p := *c.loads.front()
	if p.req == nil {
		c.loads.popFront()
		return p.fallback
	}
	t := c.ctl.WaitRead(p.req)
	c.loads.popFront()
	c.loadReqs.popFront()
	c.ctl.Release(p.req)
	return t
}

// setLastLoad records the most recent load for the dependence chain:
// a pending request (holding it) or, when r is nil, a resolved time.
func (c *Core) setLastLoad(done sim.Tick, r *mem.Request) {
	if r != nil {
		c.ctl.Hold(r)
	}
	if c.lastLoadReq != nil {
		c.ctl.Release(c.lastLoadReq)
	}
	c.lastLoad, c.lastLoadReq = done, r
}

// sweep retires finished loads and fetches from the head of the queues
// without waiting.
func (c *Core) sweep() {
	for c.loads.len() > 0 {
		p := c.loads.front()
		if p.req != nil {
			if !p.req.Done() {
				break
			}
		} else if p.fallback > c.now() {
			break
		}
		c.retireLoad()
	}
	if d := c.ctl.ReadsDone(); d != c.fetchesAt {
		c.fetchesAt = d
		keep := c.fetches[:0]
		for _, r := range c.fetches {
			if r.Done() {
				c.ctl.Release(r)
			} else {
				keep = append(keep, r)
			}
		}
		c.fetches = keep
	}
}

// recount rescans the pending load and prefetch counts if a read has
// completed since the last scan.
func (c *Core) recount() {
	if d := c.ctl.ReadsDone(); d != c.countAt {
		c.countAt = d
		c.loadPending = c.loadReqs.pending()
		c.pfPending = c.prefetchOutstanding()
	}
}

// loadsOutstanding counts unfinished demand loads that went to memory.
func (c *Core) loadsOutstanding() int {
	c.recount()
	return c.loadPending
}

// memOutstanding counts LLC MSHR occupancy: demand loads, store-allocate
// fetches and prefetches share the miss-status file.
func (c *Core) memOutstanding() int {
	c.recount()
	return len(c.fetches) + c.pfPending + c.loadPending
}

// stallFor advances the pipeline cursor to t if it is ahead.
func (c *Core) stallFor(t sim.Tick) {
	if ft := float64(t); ft > c.cycles {
		c.cycles = ft
	}
}

// Step consumes exactly one trace op: its gap instructions plus one
// access. The engine steps cores one op at a time, in local-time order
// when several share a memory system.
func (c *Core) Step() {
	op := c.gen.Next()

	// Dispatch bandwidth for the gap and the access itself.
	c.instrs += uint64(op.Gap) + 1
	c.cycles += (float64(op.Gap) + 1) / c.width

	c.sweep()
	c.drainPrefetches()

	// ROB: the window cannot move past an incomplete load that is
	// ROBEntries behind the dispatch point.
	for c.loads.len() > 0 && c.loads.front().num+c.robSize <= c.instrs {
		c.stallFor(c.retireLoad())
	}

	// MSHRs. Demand loads are bounded by the L1 miss-status file; the
	// total of loads, store-allocate fetches and prefetches is bounded
	// by the LLC's (stores and prefetches bypass the L1 MSHRs: stores
	// retire into write buffers, prefetches train at the LLC).
	for c.loadsOutstanding() >= c.loadMSHRs {
		c.stallFor(c.retireLoad())
		c.sweep()
	}
	for c.memOutstanding() >= c.mshrLimit {
		if c.loads.len() > 0 && c.loads.front().req != nil {
			c.stallFor(c.retireLoad())
		} else if len(c.fetches) > 0 {
			c.ctl.WaitRead(c.fetches[0])
			c.ctl.Release(c.fetches[0])
			c.fetches = c.fetches[1:]
		} else if len(c.pf.inflight) > 0 {
			c.ctl.WaitRead(c.pf.inflight[0].req)
			c.drainPrefetches()
		} else {
			break
		}
		c.sweep()
	}

	// Dependent loads (pointer chase) cannot issue until the previous
	// load's value arrived; the chain serialises the window.
	if op.Dep && !op.Write {
		if c.lastLoadReq != nil {
			c.stallFor(c.ctl.WaitRead(c.lastLoadReq))
		} else {
			c.stallFor(c.lastLoad)
		}
	}

	// Keep the memory clock tracking the core during compute-heavy
	// stretches so eager writes and profiling continue.
	if t := c.now(); t > c.ctl.Now() {
		c.ctl.AdvanceTo(t)
	}

	res := c.hier.Access(op.Addr, op.Write)

	// LLC write-backs displaced by this access enter the write queue;
	// a full queue back-pressures the miss.
	for _, wb := range res.Writebacks {
		accepted := c.ctl.SubmitWrite(wb, c.now())
		c.stallFor(accepted)
	}

	latency := c.hitLatency(res.Hit)
	switch {
	case res.Fetch && op.Write:
		// Write-allocate fetch: occupies an MSHR, never blocks retire.
		r := c.demandRead(res.FetchAddr)
		c.fetches = append(c.fetches, r)
		if r.Done() {
			// It attached to a prefetch that completed before now, so
			// no later completion announces it: force the next pass.
			// ReadsDone is at least 1 once any read is done.
			c.fetchesAt = 0
		}
	case res.Fetch:
		r := c.demandRead(res.FetchAddr)
		c.loads.pushBack(pendingLoad{num: c.instrs, req: r})
		c.loadReqs.pushBack(r)
		if !r.Done() {
			c.loadPending++
		}
		c.setLastLoad(c.lastLoad, r)
	case !op.Write && res.Hit != cache.LevelL1:
		done := c.now() + sim.Tick(latency)
		c.loads.pushBack(pendingLoad{num: c.instrs, fallback: done})
		c.setLastLoad(done, nil)
	case !op.Write:
		c.setLastLoad(c.now()+sim.Tick(latency), nil)
	}
}

// demandRead issues a memory read for a demand miss, reusing an
// in-flight prefetch of the same line when one exists, and training the
// stream prefetcher. The caller owns one hold on the returned request.
func (c *Core) demandRead(line uint64) *mem.Request {
	confirmed := c.pf.observe(line)
	r := c.prefetchRequest(line)
	if r != nil {
		c.ctl.Hold(r)
	} else {
		r = c.ctl.SubmitRead(line, c.now())
	}
	if confirmed {
		c.issuePrefetches(line)
	}
	return r
}

// hitLatency returns the load-to-use latency in cycles for a hit level.
func (c *Core) hitLatency(lv cache.Level) int {
	// Latencies accumulate down the hierarchy (Table I hit latencies).
	switch lv {
	case cache.LevelL1:
		return 2
	case cache.LevelL2:
		return 2 + 12
	default:
		return 2 + 12 + 35
	}
}

// Instructions returns instructions dispatched so far.
func (c *Core) Instructions() uint64 { return c.instrs }

// Cycles returns the pipeline cursor in cycles.
func (c *Core) Cycles() float64 { return c.cycles }

// BeginMeasurement marks the end of warmup for IPC accounting.
func (c *Core) BeginMeasurement() {
	c.baseCycles = c.cycles
	c.baseInstrs = c.instrs
}

// MeasuredInstructions returns instructions dispatched since
// BeginMeasurement.
func (c *Core) MeasuredInstructions() uint64 { return c.instrs - c.baseInstrs }

// MeasuredCycles returns cycles elapsed since BeginMeasurement.
func (c *Core) MeasuredCycles() float64 { return c.cycles - c.baseCycles }

// IPC returns instructions per cycle over the measurement window.
func (c *Core) IPC() float64 {
	cycles := c.cycles - c.baseCycles
	if cycles <= 0 {
		return 0
	}
	return float64(c.instrs-c.baseInstrs) / cycles
}

// CollectMetrics publishes the core's cumulative counters into a
// per-run metrics registry. Read-only: it is a snapshot-time collector
// and must never perturb the pipeline model.
func (c *Core) CollectMetrics(g *metrics.Gatherer) {
	g.Counter("sim_cpu_instructions_total", "Instructions dispatched since construction.", c.instrs)
	g.Gauge("sim_cpu_cycles", "Core cycles consumed since construction.", c.cycles)
	g.Counter("sim_cpu_instructions_measured_total", "Instructions retired inside the measured window.", c.MeasuredInstructions())
	g.Gauge("sim_cpu_cycles_measured", "Core cycles consumed inside the measured window.", c.MeasuredCycles())
}
