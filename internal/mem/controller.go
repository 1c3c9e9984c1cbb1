package mem

import (
	"math/bits"

	"mellow/internal/config"
	"mellow/internal/energy"
	"mellow/internal/nvm"
	"mellow/internal/policy"
	"mellow/internal/sim"
	"mellow/internal/stats"
	"mellow/internal/wear"
	"mellow/internal/xtrace"
)

// eagerPumpInterval is how often the controller lets the LLC refill the
// Eager Mellow Queue. The paper allows one candidate per idle LLC cycle;
// topping the 16-entry queue up every 10 memory cycles (25 ns) is an
// equivalent but event-efficient rate (a slow write takes 450 ns).
const eagerPumpInterval = 10 * sim.MemCycle

// forwardLatency is the controller-internal latency of serving a read
// straight from a queued write's data (write-to-read forwarding).
const forwardLatency = 2 * sim.MemCycle

// cancelPenalty is the bank recovery time after an aborted write pulse.
const cancelPenalty = sim.MemCycle

// resumePenalty is the extra pulse time a paused write pays when it
// resumes (re-ramping the write drivers).
const resumePenalty = sim.MemCycle

// EagerSource supplies eager write-back candidates (the LLC). It returns
// a line address, or ok=false when no useless dirty line is available.
type EagerSource func() (line uint64, ok bool)

// Controller event opcodes. All controller events go through one typed
// sim.Handler (the controller itself) so the kernel never allocates a
// closure per event: the payload word a packs opcode, bank and issue
// generation, and b carries the request's arena index.
const (
	opSched    = iota // run trySchedule for a bank
	opComplete        // finish the bank's current operation
	opReadDone        // a read's data burst arrived
	opPump            // refill the Eager Mellow Queue
	opQuota           // close a Wear Quota sample period
)

// evWord packs an event payload: opcode in bits 0..7, bank in bits
// 8..31, the request slot's issue generation in bits 32..63.
func evWord(op, bank int, gen uint32) uint64 {
	return uint64(op) | uint64(bank)<<8 | uint64(gen)<<32
}

// bankState is the per-bank timing and row-buffer state.
type bankState struct {
	cur            *Request
	curCancellable bool
	curPausable    bool
	curStart       sim.Tick
	freeAt         sim.Tick
	openValid      bool
	openTag        uint64
	busy           stats.BusyMeter

	// wakeAt is the bank's precomputed next-wakeup tick: the tick of the
	// pending opSched event when wakeSet. Duplicate same-tick wakeups are
	// suppressed at the source, so an idle bank costs nothing — no event
	// traffic, no scans.
	wakeAt  sim.Tick
	wakeSet bool
}

// Controller is the resistive-memory controller. It is single-threaded
// and driven by the simulation kernel it is given.
type Controller struct {
	k    *sim.Kernel
	cfg  config.Memory
	spec policy.Spec
	em   nvm.EnergyModel

	banks         []bankState
	bankMask      uint64
	bankBits      uint
	linesPerBuf   uint64
	blocksPerBank int64

	arena                 reqArena
	readQ, writeQ, eagerQ reqQueue
	readsInFlight         int // reads issued to a bank whose data has not returned
	ledger                ledger

	// readsDone counts reads that turned done since construction; see
	// ReadsDone. It is not a statistic: ResetStats leaves it alone.
	readsDone uint64

	draining   bool
	drainMeter stats.Toggle
	busFree    []sim.Tick    // per-channel data-bus occupancy
	rankAct    [][4]sim.Tick // per-rank ring of last 4 activates (tFAW)
	rankActIdx []int
	rankActN   []int // activations recorded, saturating at 4

	meters []*wear.Meter
	quotas []*wear.Quota
	levs   []wear.Leveler

	// levelEff and remapName are precomputed from the leveling backend:
	// the §V lifetime efficiency, and the trace-instant name so remap
	// hooks never format on the hot path.
	levelEff  float64
	remapName string

	eagerSource EagerSource

	// trace, when non-nil, receives the per-bank execution timeline.
	// Hooks cost one nil check when disabled and only ever append to
	// the recorder, so a traced run stays bit-identical to an untraced
	// one.
	trace      *xtrace.Recorder
	drainStart sim.Tick

	statsStart  sim.Tick
	energy      energy.Breakdown
	energyBase  energy.Breakdown
	readLat     stats.Histogram
	readLatBase stats.Histogram
	counts      Counters
	base        meterBase
}

// ledger is the controller's request bookkeeping since construction,
// for conservation checks: every admitted write ends completed or, for
// an eager write, dropped as stale, and every pulse a write starts ends
// in exactly one completion, cancellation or pause.
type ledger struct {
	dropped  uint64 // queued eager writes replaced by a write-back
	requeued uint64 // cancelled or paused writes returned to their queue
	attempts uint64 // issue attempts of writes that completed or were dropped
}

// Counters are the monotonically increasing event counts of the
// controller (since the last ResetStats).
type Counters struct {
	Reads         uint64 // reads serviced by banks
	RowHits       uint64
	RowMisses     uint64
	Forwarded     uint64 // reads served from queued write data
	WriteQueued   uint64 // write-backs accepted into the write queue
	EagerQueued   uint64 // eager write-backs accepted
	Coalesced     uint64 // write-backs merged into an existing entry
	WritesDone    uint64 // demand writes completed (write queue)
	EagerDone     uint64 // eager writes completed
	Cancellations uint64
	Pauses        uint64 // write pulses suspended by reads (+WP)
	Drains        uint64 // drain-mode entries
}

// New wires a controller to a kernel for the given configuration and
// policy.
func New(k *sim.Kernel, cfg config.Memory, spec policy.Spec) *Controller {
	nb := cfg.Banks()
	c := &Controller{
		k:             k,
		cfg:           cfg,
		spec:          spec,
		em:            nvm.EnergyModel{Cell: cfg.Cell},
		banks:         make([]bankState, nb),
		bankMask:      uint64(nb - 1),
		bankBits:      uint(bits.TrailingZeros(uint(nb))),
		linesPerBuf:   uint64(cfg.RowBufferBytes / config.LineBytes),
		blocksPerBank: cfg.BlocksPerBank(),
		busFree:       make([]sim.Tick, cfg.Channels),
		rankAct:       make([][4]sim.Tick, cfg.TotalRanks()),
		rankActIdx:    make([]int, cfg.TotalRanks()),
		rankActN:      make([]int, cfg.TotalRanks()),
	}
	c.readQ.init(nb)
	c.writeQ.init(nb)
	c.eagerQ.init(nb)
	c.meters = make([]*wear.Meter, nb)
	c.quotas = make([]*wear.Quota, nb)
	c.levs = make([]wear.Leveler, nb)
	for b := 0; b < nb; b++ {
		c.meters[b] = &wear.Meter{}
		c.quotas[b] = wear.NewQuota(c.blocksPerBank, cfg.Device.BaseEndurance,
			spec.QuotaPeriod, spec.TargetLifetime, spec.QuotaRatio)
		// The seed keeps randomized backends (WoLFRaM) deterministic per
		// bank while decorrelating banks from each other.
		lv, err := wear.NewLeveler(wear.LevelerConfig{
			Backend:             cfg.WearLeveler,
			Blocks:              c.blocksPerBank,
			Seed:                uint64(b),
			StartGapPsi:         cfg.StartGapPsi,
			StartGapEfficiency:  cfg.StartGapEfficiency,
			WolframSwapPeriod:   cfg.WolframSwapPeriod,
			SoftWearPageBlocks:  cfg.SoftWearPageBlocks,
			SoftWearEpochWrites: cfg.SoftWearEpochWrites,
		})
		if err != nil {
			// Validate() checks every leveler parameter, so this is a
			// programming error, not a configuration one.
			panic("mem: " + err.Error())
		}
		c.levs[b] = lv
	}
	c.levelEff = c.levs[0].Efficiency()
	c.remapName = "remap: " + c.levs[0].Name()
	if spec.WearQuota {
		// Housekeeping timer: it must not keep Drain() alive, so it is a
		// daemon event.
		c.k.AfterDaemonEvent(spec.QuotaPeriod, c, evWord(opQuota, 0, 0), 0)
		// Period 0 starts immediately with zero history.
		for _, q := range c.quotas {
			q.StartPeriod(0)
		}
	}
	c.ResetStats()
	return c
}

// SetEagerSource installs the LLC candidate callback and starts the
// eager pump. Must be called before simulation when the policy has
// Eager enabled.
func (c *Controller) SetEagerSource(src EagerSource) {
	c.eagerSource = src
	if c.spec.Eager {
		c.k.AfterDaemonEvent(eagerPumpInterval, c, evWord(opPump, 0, 0), 0)
	}
}

// SetTrace attaches (or detaches, nil) the execution-timeline
// recorder. The engine installs it before a traced run starts.
func (c *Controller) SetTrace(r *xtrace.Recorder) { c.trace = r }

// OnEvent dispatches the controller's typed kernel events (sim.Handler).
func (c *Controller) OnEvent(now sim.Tick, a, b uint64) {
	op := int(a & 0xff)
	bank := int(a >> 8 & 0xffffff)
	switch op {
	case opSched:
		bs := &c.banks[bank]
		if bs.wakeSet && bs.wakeAt == now {
			bs.wakeSet = false
		}
		c.trySchedule(bank, now)
	case opComplete:
		c.completeBankOp(bank, c.arena.at(uint32(b)), uint32(a>>32), now)
	case opReadDone:
		r := c.arena.at(uint32(b))
		r.done = true
		r.doneAt = now
		c.readsInFlight--
		c.readsDone++
		c.readLat.Add(uint64((now - r.arrive) / sim.TicksPerNS))
		if r.holds == 0 {
			c.arena.release(r)
		}
	case opPump:
		c.eagerPump(now)
	case opQuota:
		c.quotaTick(now)
	}
}

// Timeline slice names by write mode, precomputed so the trace hooks
// never format on the hot path.
var (
	writeSliceName = [4]string{"fast write", "slow write 1.5x", "slow write 2.0x", "slow write 3.0x"}
	eagerSliceName = [4]string{"eager write", "eager write 1.5x", "eager write 2.0x", "eager write 3.0x"}
)

// traceOp records one finished bank operation on its bank track.
func (c *Controller) traceOp(r *Request, start, end sim.Tick) {
	if c.trace == nil {
		return
	}
	name := "read"
	switch r.Kind {
	case KindWrite:
		name = writeSliceName[r.mode]
	case KindEager:
		name = eagerSliceName[r.mode]
	}
	c.trace.Slice(xtrace.BankTrack(r.Bank), name, r.Kind.String(),
		start, end, r.Line, uint64(r.attempts))
}

// quotaTick closes a Wear Quota sample period on every bank (§IV-C).
func (c *Controller) quotaTick(now sim.Tick) {
	for b := range c.quotas {
		flipped := c.quotas[b].StartPeriod(c.meters[b].Damage())
		if flipped && c.trace != nil {
			name := "quota: fast writes restored"
			if c.quotas[b].Exceeded() {
				name = "quota exceeded: slow-only"
			}
			c.trace.Instant(xtrace.BankTrack(b), name, "quota", now,
				0, c.quotas[b].Periods())
		}
	}
	c.k.AfterDaemonEvent(c.spec.QuotaPeriod, c, evWord(opQuota, 0, 0), 0)
}

// eagerPump tops the Eager Mellow Queue up from the LLC.
func (c *Controller) eagerPump(now sim.Tick) {
	for c.eagerQ.size < c.cfg.EagerQueue {
		line, ok := c.eagerSource()
		if !ok {
			break
		}
		bank := int(line & c.bankMask)
		if c.eagerQ.find(bank, line) != nil || c.writeQ.find(bank, line) != nil {
			continue
		}
		r := c.newRequest(KindEager, line, now)
		c.eagerQ.pushBack(r)
		c.counts.EagerQueued++
		c.wake(r.Bank, now)
	}
	c.k.AfterDaemonEvent(eagerPumpInterval, c, evWord(opPump, 0, 0), 0)
}

// mapLine decomposes a line address into bank and row-buffer tag after
// wear-leveling remapping within the bank.
func (c *Controller) mapLine(line uint64) (bank int, bufTag uint64) {
	bank = int(line & c.bankMask)
	inBank := int64(line>>c.bankBits) % c.blocksPerBank
	phys := c.levs[bank].Map(inBank)
	return bank, uint64(phys) / c.linesPerBuf
}

// newRequest fills a fresh arena slot; the hot path allocates nothing.
func (c *Controller) newRequest(kind Kind, line uint64, now sim.Tick) *Request {
	bank, tag := c.mapLine(line)
	r := c.arena.alloc()
	r.Kind, r.Line, r.Bank, r.bufTag, r.arrive = kind, line, bank, tag, now
	return r
}

// rank returns the global rank a bank belongs to.
func (c *Controller) rank(bank int) int { return bank / c.cfg.BanksPerRank }

// channel returns the channel a bank's data bus belongs to. Banks are
// line-interleaved, so adjacent lines alternate channels first.
func (c *Controller) channel(bank int) int { return bank % c.cfg.Channels }

// AdvanceTo lets the memory system run up to time t (e.g. while the core
// computes without missing).
func (c *Controller) AdvanceTo(t sim.Tick) { c.k.AdvanceTo(t) }

// Now returns the memory-system clock.
func (c *Controller) Now() sim.Tick { return c.k.Now() }

// SubmitRead enqueues a demand read at time t (clamped to the memory
// clock). If the read queue is full, the submission blocks (in simulated
// time) until space frees. The returned request completes when Done().
// It carries one hold for the caller: once the caller calls Release (and
// has dropped every further Hold), its slot may be reused. A read that
// is never released stays valid for the controller's lifetime.
func (c *Controller) SubmitRead(line uint64, t sim.Tick) *Request {
	c.advanceToAtLeast(t)
	bank := int(line & c.bankMask)
	// Write-to-read forwarding: a queued or in-flight write to the same
	// line has the data.
	if r := c.writeQ.find(bank, line); r != nil {
		return c.forward(r)
	}
	if r := c.eagerQ.find(bank, line); r != nil {
		return c.forward(r)
	}
	// A write occupies the bank its line maps to, so only that bank's
	// current operation can be one to this line.
	if cur := c.banks[bank].cur; cur != nil && cur.Kind != KindRead && cur.Line == line {
		return c.forward(cur)
	}
	for c.readQ.size >= c.cfg.ReadQueue {
		c.waitForProgress(func() bool { return c.readQ.size < c.cfg.ReadQueue })
	}
	now := c.k.Now()
	r := c.newRequest(KindRead, line, now)
	r.holds = 1
	c.readQ.pushBack(r)
	c.maybePreemptForRead(r, now)
	c.wake(r.Bank, now)
	return r
}

// forward completes a read instantly from write data.
func (c *Controller) forward(w *Request) *Request {
	c.counts.Forwarded++
	c.readsDone++
	now := c.k.Now()
	r := c.arena.alloc()
	r.Kind, r.Line, r.Bank = KindRead, w.Line, w.Bank
	r.arrive, r.done, r.doneAt = now, true, now+forwardLatency
	r.holds = 1
	return r
}

// ReadsDone returns how many reads have turned done since the
// controller was built: bank-serviced reads whose data returned plus
// reads forwarded from write data. It only ever grows, so a caller that
// recorded it can tell that no read of its own changed state while it
// still reads the same value.
func (c *Controller) ReadsDone() uint64 { return c.readsDone }

// Hold takes one more reference to a read returned by SubmitRead, for a
// caller that keeps it in several places. Each Hold needs its Release.
func (c *Controller) Hold(r *Request) { r.holds++ }

// Release drops one reference to a read returned by SubmitRead. The
// caller must not touch r afterwards: once a read is done and its last
// hold is released, its slot is recycled for a later request.
func (c *Controller) Release(r *Request) {
	if r.holds <= 0 {
		panic("mem: Release of a request with no holds")
	}
	r.holds--
	if r.holds == 0 && r.done {
		c.arena.release(r)
	}
}

// ReleaseArena hands the controller's request storage back for reuse
// by the next controller. Only whoever built the controller releases it,
// once, after it has read every output it needs: snapshots and metrics
// collectors still work, but no request may be submitted or looked up
// afterwards.
func (c *Controller) ReleaseArena() { c.arena.recycle() }

// SubmitWrite enqueues an LLC dirty write-back at time t. If the write
// queue is full the submission blocks until space frees (the drain
// machinery guarantees progress). It returns the acceptance time.
func (c *Controller) SubmitWrite(line uint64, t sim.Tick) sim.Tick {
	c.advanceToAtLeast(t)
	bank := int(line & c.bankMask)
	// Coalesce with an already-queued write to the same line.
	if c.writeQ.find(bank, line) != nil {
		c.counts.Coalesced++
		return c.k.Now()
	}
	// A queued eager write to the line is stale relative to this
	// write-back: replace it.
	if e := c.eagerQ.find(bank, line); e != nil {
		c.eagerQ.remove(e)
		c.retireWrite(e)
		c.ledger.dropped++
	}
	for c.writeQ.size >= c.cfg.WriteQueue {
		c.waitForProgress(func() bool { return c.writeQ.size < c.cfg.WriteQueue })
	}
	now := c.k.Now()
	r := c.newRequest(KindWrite, line, now)
	c.writeQ.pushBack(r)
	c.counts.WriteQueued++
	c.updateDrainState(now)
	c.wake(r.Bank, now)
	return now
}

// WaitRead advances simulated time until the read completes.
func (c *Controller) WaitRead(r *Request) sim.Tick {
	if !r.done {
		c.k.AdvanceUntil(func() bool { return r.done })
	}
	return r.doneAt
}

// waitForProgress advances until cond holds, panicking if the event
// queue empties first (which would mean the controller deadlocked).
func (c *Controller) waitForProgress(cond func() bool) {
	if !c.k.AdvanceUntil(cond) {
		panic("mem: controller stalled waiting for queue space")
	}
}

// advanceToAtLeast moves the kernel to t if t is in the future; the core
// may lag slightly behind the memory clock after blocking submissions.
func (c *Controller) advanceToAtLeast(t sim.Tick) {
	if t > c.k.Now() {
		c.k.AdvanceTo(t)
	}
}

// maybePreemptForRead implements the two read-priority mechanisms: write
// pausing (+WP; the pulse suspends and later resumes) and write
// cancellation (§III; the pulse aborts and is redone). Pausing is tried
// first — it wastes no work.
func (c *Controller) maybePreemptForRead(r *Request, now sim.Tick) {
	b := &c.banks[r.Bank]
	if b.cur == nil || b.cur.Kind == KindRead {
		return
	}
	if b.curPausable {
		c.pauseWrite(r.Bank, now)
		return
	}
	if !b.curCancellable {
		return
	}
	w := b.cur
	c.counts.Cancellations++
	// The aborted pulse stressed the cell and dissipated power only for
	// the fraction of the pulse that ran; wear and energy are pro-rated
	// (§III: cancellation's lifetime penalty comes from the multiple
	// partial attempts).
	frac := 0.0
	if now > b.curStart && b.freeAt > b.curStart {
		frac = float64(now-b.curStart) / float64(b.freeAt-b.curStart)
		if frac > 1 {
			frac = 1
		}
	}
	c.meters[r.Bank].RecordCancelled(w.mode, c.cfg.Device.Damage(w.mode)*frac)
	c.energy.AddCancelled(c.em, w.mode, frac)
	b.busy.AddBusy(b.curStart, now)
	if c.trace != nil {
		c.trace.Slice(xtrace.BankTrack(r.Bank), "cancelled write", "cancel",
			b.curStart, now, w.Line, uint64(w.attempts))
	}
	b.cur = nil
	b.freeAt = now + cancelPenalty
	// The write returns to the head of its queue for retry.
	c.ledger.requeued++
	if w.Kind == KindEager {
		c.eagerQ.pushFront(w)
	} else {
		c.writeQ.pushFront(w)
		c.updateDrainState(now)
	}
	// The pending completion event will find bank.cur changed and do
	// nothing; schedule the read opportunity after the penalty.
	c.wake(r.Bank, b.freeAt)
}

// pauseWrite suspends the bank's in-flight write, remembering the pulse
// remainder for the resume. Wear and energy accrue once, at completion.
func (c *Controller) pauseWrite(bank int, now sim.Tick) {
	b := &c.banks[bank]
	w := b.cur
	if b.freeAt <= now {
		return // pulse effectively finished; let the completion event run
	}
	c.counts.Pauses++
	w.remaining = b.freeAt - now
	b.busy.AddBusy(b.curStart, now)
	if c.trace != nil {
		c.trace.Slice(xtrace.BankTrack(bank), "paused write", "pause",
			b.curStart, now, w.Line, uint64(w.attempts))
	}
	b.cur = nil
	b.freeAt = now + cancelPenalty
	c.ledger.requeued++
	if w.Kind == KindEager {
		c.eagerQ.pushFront(w)
	} else {
		c.writeQ.pushFront(w)
		c.updateDrainState(now)
	}
	c.wake(bank, b.freeAt)
}

// updateDrainState flips drain mode per the §VI-C thresholds.
func (c *Controller) updateDrainState(now sim.Tick) {
	if !c.draining && c.writeQ.size >= c.cfg.DrainHigh {
		c.draining = true
		c.counts.Drains++
		c.drainMeter.Set(true, now)
		if c.trace != nil {
			c.drainStart = now
			c.trace.Instant(xtrace.TrackController, "drain start", "drain",
				now, 0, uint64(c.writeQ.size))
		}
	} else if c.draining && c.writeQ.size <= c.cfg.DrainLow {
		c.draining = false
		c.drainMeter.Set(false, now)
		if c.trace != nil {
			c.trace.Slice(xtrace.TrackController, "drain", "drain",
				c.drainStart, now, 0, uint64(c.writeQ.size))
		}
	}
}

// FlushTrace closes any timeline window still open when a traced run
// ends (a drain the run finished inside). The engine calls it once
// after the final drain phase.
func (c *Controller) FlushTrace() {
	if c.trace == nil {
		return
	}
	if c.draining {
		c.trace.Slice(xtrace.TrackController, "drain", "drain",
			c.drainStart, c.k.Now(), 0, uint64(c.writeQ.size))
	}
}

// trySchedule issues the next request for a bank if it is idle.
func (c *Controller) trySchedule(bank int, now sim.Tick) {
	b := &c.banks[bank]
	if b.cur != nil {
		return
	}
	if b.freeAt > now {
		// Bank in post-op recovery; an event at freeAt retries.
		return
	}
	read := c.pickRead(bank)
	write := c.writeQ.oldest(bank)
	switch {
	case c.draining && write != nil:
		c.issueWrite(write, now)
	case read != nil:
		c.issueRead(read, now)
	case write != nil:
		c.issueWrite(write, now)
	default:
		if eager := c.eagerQ.oldest(bank); eager != nil {
			c.issueEager(eager, now)
		}
	}
}

// pickRead chooses the next read for a bank: plain FCFS, or under
// FR-FCFS the oldest row-buffer hit if one exists (first-ready FCFS).
func (c *Controller) pickRead(bank int) *Request {
	if c.cfg.Scheduler != "frfcfs" {
		return c.readQ.oldest(bank)
	}
	b := &c.banks[bank]
	any := c.readQ.oldest(bank)
	if b.openValid {
		for r := any; r != nil; r = r.next {
			if b.openTag == r.bufTag {
				return r
			}
		}
	}
	return any
}

// issueRead starts a read on its (idle) bank.
func (c *Controller) issueRead(r *Request, now sim.Tick) {
	b := &c.banks[r.Bank]
	c.readQ.remove(r)
	start := now
	var access sim.Tick
	if b.openValid && b.openTag == r.bufTag {
		c.counts.RowHits++
		access = c.cfg.TCAS
		c.energy.AddRowHitRead(c.em)
	} else {
		c.counts.RowMisses++
		start = c.activateStart(r.Bank, now)
		access = c.cfg.TRCD + c.cfg.TCAS
		c.energy.AddBufferFill(c.em)
		b.openValid = true
		b.openTag = r.bufTag
	}
	c.counts.Reads++
	burst := sim.Tick(c.cfg.BurstCycles) * sim.MemCycle
	ch := c.channel(r.Bank)
	accessEnd := start + access
	xferStart := accessEnd
	if c.busFree[ch] > xferStart {
		xferStart = c.busFree[ch]
	}
	c.busFree[ch] = xferStart + burst
	doneAt := xferStart + burst

	b.cur = r
	b.curCancellable = false
	b.curStart = start
	b.freeAt = accessEnd
	r.attempts++
	r.gen++
	c.readsInFlight++
	c.k.AtEvent(accessEnd, c, evWord(opComplete, r.Bank, r.gen), uint64(r.idx))
	c.k.AtEvent(doneAt, c, evWord(opReadDone, 0, 0), uint64(r.idx))
}

// activateStart returns the earliest time a row activation may start in
// the bank's rank, honouring tFAW, and records the activation.
func (c *Controller) activateStart(bank int, now sim.Tick) sim.Tick {
	rk := c.rank(bank)
	idx := c.rankActIdx[rk]
	start := now
	if c.rankActN[rk] >= 4 {
		if oldest := c.rankAct[rk][idx]; oldest+c.cfg.TFAW > start {
			start = oldest + c.cfg.TFAW
		}
	} else {
		c.rankActN[rk]++
	}
	c.rankAct[rk][idx] = start
	c.rankActIdx[rk] = (idx + 1) % 4
	return start
}

// issueWrite starts a demand write-back, choosing its pulse per Fig. 9.
func (c *Controller) issueWrite(w *Request, now sim.Tick) {
	view := policy.QueueView{
		WritesForBank: c.writeQ.count(w.Bank),
		QuotaExceeded: c.quotas[w.Bank].Exceeded(),
		Draining:      c.draining,
	}
	dec := c.spec.DecideWrite(view)
	c.writeQ.remove(w)
	c.updateDrainState(now)
	c.startWritePulse(w, dec, now)
}

// issueEager starts an eager mellow write.
func (c *Controller) issueEager(w *Request, now sim.Tick) {
	view := policy.QueueView{QuotaExceeded: c.quotas[w.Bank].Exceeded()}
	dec := c.spec.DecideEager(view)
	c.eagerQ.remove(w)
	c.startWritePulse(w, dec, now)
}

// startWritePulse occupies the bank for the chosen pulse — or for the
// pulse remainder when resuming a paused write. The data burst on the
// shared bus overlaps the start of the pulse.
func (c *Controller) startWritePulse(w *Request, dec policy.WriteDecision, now sim.Tick) {
	b := &c.banks[w.Bank]
	start := now
	ch := c.channel(w.Bank)
	if c.busFree[ch] > start {
		start = c.busFree[ch]
	}
	burst := sim.Tick(c.cfg.BurstCycles) * sim.MemCycle
	c.busFree[ch] = start + burst
	var pulse sim.Tick
	if w.remaining > 0 {
		// Resume: keep the original mode, pay only the remainder.
		pulse = w.remaining + resumePenalty
		w.remaining = 0
	} else {
		w.mode = dec.Mode
		pulse = c.cfg.Device.WriteLatency(dec.Mode)
	}
	w.attempts++
	w.gen++
	end := start + pulse
	b.cur = w
	b.curCancellable = dec.Cancellable
	b.curPausable = dec.Pausable
	b.curStart = start
	b.freeAt = end
	c.k.AtEvent(end, c, evWord(opComplete, w.Bank, w.gen), uint64(w.idx))
}

// completeBankOp finishes the bank's current operation (unless it was
// cancelled meanwhile — the slot's issue generation gen guards against a
// stale completion event matching a retry or a later occupant of the
// slot) and schedules the next.
func (c *Controller) completeBankOp(bank int, r *Request, gen uint32, now sim.Tick) {
	b := &c.banks[bank]
	if b.cur != r || r.gen != gen {
		return // cancelled; a retry was queued
	}
	b.cur = nil
	b.busy.AddBusy(b.curStart, now)
	c.traceOp(r, b.curStart, now)
	if r.Kind != KindRead {
		c.finishWrite(bank, r, now)
		c.retireWrite(r)
		if b.freeAt > now {
			// Wear-leveling migration keeps the bank busy a little longer.
			b.busy.AddBusy(now, b.freeAt)
			c.wake(bank, b.freeAt)
			return
		}
	}
	c.trySchedule(bank, now)
}

// finishWrite accounts wear, energy, wear-leveling movement and
// completion for a write that ran to the end of its pulse.
func (c *Controller) finishWrite(bank int, w *Request, now sim.Tick) {
	b := &c.banks[bank]
	c.meters[bank].Record(w.mode, c.cfg.Device.Damage(w.mode))
	c.energy.AddWrite(c.em, w.mode)
	if w.Kind == KindEager {
		c.counts.EagerDone++
	} else {
		c.counts.WritesDone++
	}
	w.done = true
	w.doneAt = now
	inBank := int64(w.Line>>c.bankBits) % c.blocksPerBank
	if cost := c.levs[bank].Observe(inBank); cost.CopyWrites > 0 {
		// Each migration copy is one array read plus one normal write; the
		// bank stays busy for all of them (page-granularity backends copy
		// many blocks at once).
		for i := 0; i < cost.CopyWrites; i++ {
			c.meters[bank].RecordGapMove()
			c.energy.AddMigration(c.em)
		}
		b.freeAt = now + sim.Tick(cost.CopyWrites)*(c.cfg.TRCD+c.cfg.Device.WriteLatency(nvm.WriteNormal))
		if c.trace != nil {
			c.trace.Instant(xtrace.BankTrack(bank), c.remapName, "remap",
				now, w.Line, uint64(cost.CopyWrites))
		}
	}
}

// retireWrite recycles the slot of a write the controller is done with:
// completed, or dropped from the eager queue as stale. Nothing outside
// the controller holds writes, and the caller has unlinked it from every
// queue and bank.
func (c *Controller) retireWrite(w *Request) {
	c.ledger.attempts += uint64(w.attempts)
	c.arena.release(w)
}

// Occupancy is a census of the request arena, for conservation checks:
// every slot in use is queued, in flight, or a done read its submitter
// still holds.
type Occupancy struct {
	// InUse counts arena slots handed out and not recycled.
	InUse int
	// Queued counts requests waiting in the read, write and eager queues.
	Queued int
	// InFlight counts writes on a bank plus reads issued to a bank whose
	// data has not returned.
	InFlight int
}

// Occupancy returns the arena census.
func (c *Controller) Occupancy() Occupancy {
	o := Occupancy{
		InUse:    c.arena.inUse(),
		Queued:   c.readQ.size + c.writeQ.size + c.eagerQ.size,
		InFlight: c.readsInFlight,
	}
	for b := range c.banks {
		if cur := c.banks[b].cur; cur != nil && cur.Kind != KindRead {
			o.InFlight++
		}
	}
	return o
}
