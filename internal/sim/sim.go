// Package sim provides the discrete-event simulation kernel used by the
// memory-system model: an integer clock in ticks and a bucketed timer
// wheel of pending events with deterministic FIFO tie-breaking for
// events scheduled at the same tick.
//
// One tick is 0.5 ns — one cycle of the 2 GHz core in Table I. The 400 MHz
// memory clock of Table II is exactly 5 ticks, so every timing parameter in
// the paper is an integer number of ticks.
//
// # Event storage
//
// Events live in a free-list slab and are threaded through a timer wheel
// of one-tick buckets covering the window [now, now+wheelSlots). Nearly
// every event the memory model schedules lands within a few hundred
// ticks (the longest write pulse is 900 ticks), so the common case is an
// O(1) bucket append on schedule and an O(1) bucket pop on fire, with
// zero allocation in steady state. Events beyond the wheel horizon (the
// Wear Quota period, 10^6 ticks) go to a small overflow list and migrate
// into the wheel as the clock approaches them — a calendar-queue
// fallback. The fire order is exactly (tick, seq): within one bucket all
// events share one tick and are chained in insertion order, and overflow
// migration inserts by seq, so the ordering contract of the old
// container/heap implementation is preserved bit for bit (see
// TestWheelMatchesReferenceHeap).
package sim

import (
	"fmt"
	"math/bits"
	"sync"
)

// Tick is a point in simulated time, in units of 0.5 ns.
type Tick uint64

// Conversion constants between ticks and the units used in the paper.
const (
	// TicksPerNS is the number of ticks per nanosecond.
	TicksPerNS = 2
	// CPUCycle is the duration of one 2 GHz processor cycle.
	CPUCycle Tick = 1
	// MemCycle is the duration of one 400 MHz memory-bus cycle (2.5 ns).
	MemCycle Tick = 5
)

// NS returns the tick count for a duration given in nanoseconds.
func NS(ns uint64) Tick { return Tick(ns * TicksPerNS) }

// Nanoseconds converts a tick count back to (possibly fractional) ns.
func (t Tick) Nanoseconds() float64 { return float64(t) / TicksPerNS }

// Seconds converts a tick count to seconds of simulated time.
func (t Tick) Seconds() float64 { return float64(t) / (TicksPerNS * 1e9) }

// Event is a callback run at a specific tick: a probe, or a one-off
// event scheduled through AtEvent, which it satisfies as a Handler that
// ignores the payload words. The kernel passes the current time back to
// the callback.
type Event func(now Tick)

// OnEvent runs the callback, so an Event can be scheduled as a Handler.
func (fn Event) OnEvent(now Tick, _, _ uint64) { fn(now) }

// Handler is the allocation-free event callback: a single interface
// value (typically the component itself) receives every event with two
// opaque payload words. Hot paths hand AtEvent a handler built once, so
// nothing is allocated per event; the payload words carry an opcode
// plus whatever identifies the work (a bank index, a slab index, a
// generation counter).
type Handler interface {
	OnEvent(now Tick, a, b uint64)
}

// Timer-wheel geometry. One bucket per tick over a 4096-tick window
// (2 µs): wide enough for every bank-timing event the memory model
// schedules (longest write pulse 900 ticks, tFAW windows, bus bursts);
// only multi-period timers (Wear Quota, profiler rotation when scheduled
// far ahead) overflow.
const (
	wheelBits  = 12
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64

	nilIdx = int32(-1)
)

// maxTick is the step horizon used by Drain and AdvanceUntil.
const maxTick = Tick(^uint64(0))

// pendingEvent is one slab slot: timing, ordering, the handler and its
// payload, and the intrusive bucket link.
type pendingEvent struct {
	at     Tick
	seq    uint64 // insertion order; breaks ties deterministically
	h      Handler
	a, b   uint64
	daemon bool  // housekeeping event: never keeps Drain alive
	next   int32 // next event in bucket / free list
}

// ProbeID names a registered periodic probe for removal.
type ProbeID int

// probe is a periodic read-only observer: fn fires at every multiple of
// period past its registration time, interleaved deterministically with
// the pending events (see AddProbe for the contract).
type probe struct {
	id     ProbeID
	period Tick
	next   Tick
	fn     Event
}

// Kernel is a discrete-event scheduler. The zero value is ready to use.
// It is not safe for concurrent use; the whole simulator is single-threaded
// and deterministic.
type Kernel struct {
	now   Tick
	seq   uint64
	fired uint64

	slab     []pendingEvent
	freeHead int32
	npending int
	ndaemon  int // pending daemon (housekeeping) events, a subset of npending

	// wheel buckets: head/tail slab indices per slot, plus an occupancy
	// bitmap so the next non-empty bucket is found with bit scans.
	wheelHead [wheelSlots]int32
	wheelTail [wheelSlots]int32
	occ       [wheelWords]uint64
	wheelN    int

	// overflow holds events at or beyond now+wheelSlots; overflowMin
	// caches the earliest overflow tick.
	overflow    []int32
	overflowMin Tick

	// peekAt caches the earliest pending tick while peekValid. The CPU
	// model nudges the memory clock forward every instruction; with the
	// cache those calls are a compare instead of a bitmap scan. Scheduling
	// can only lower the cached minimum (handled in schedule); firing an
	// event invalidates it.
	peekAt    Tick
	peekValid bool

	probes      []probe
	nextProbeID ProbeID
	inProbe     bool

	ready    bool // lazy one-time init of the nil-sentinel indices
	released bool // Release ran and NewKernel has not handed k out again
}

// init prepares the zero-value kernel: bucket heads and the free list
// use -1 as nil, which the zero value cannot express.
func (k *Kernel) init() {
	if k.released {
		panic("sim: event scheduled on a released kernel")
	}
	k.ready = true
	k.freeHead = nilIdx
	for i := range k.wheelHead {
		k.wheelHead[i] = nilIdx
		k.wheelTail[i] = nilIdx
	}
}

// kernels holds released kernels for NewKernel. A kernel is ~33 KB,
// nearly all of it wheel buckets, which makes it most of what a short
// simulation would otherwise allocate.
var kernels sync.Pool

// NewKernel returns an empty kernel like &Kernel{}, reusing a released
// one when the pool holds one.
func NewKernel() *Kernel {
	k, _ := kernels.Get().(*Kernel)
	if k == nil {
		return &Kernel{}
	}
	k.now, k.seq, k.fired = 0, 0, 0
	k.released, k.ready = false, true
	return k
}

// Release drops every pending event and probe and hands the kernel to
// NewKernel for reuse. Only the kernel's owner releases it, once, after
// the run's outputs are built. Until NewKernel hands it out again, Now
// and the counters stay readable, and scheduling on it or releasing it
// again panics; from then on it belongs to its next owner. An empty
// bucket's head and tail are -1, so only the occupied ones are reset.
func (k *Kernel) Release() {
	if k.released {
		panic("sim: kernel released twice")
	}
	if !k.ready {
		k.init()
	}
	for i, word := range k.occ {
		for ; word != 0; word &= word - 1 {
			slot := i<<6 | bits.TrailingZeros64(word)
			k.wheelHead[slot], k.wheelTail[slot] = nilIdx, nilIdx
		}
	}
	k.occ = [wheelWords]uint64{}
	clear(k.slab) // drop the pending callbacks
	k.slab, k.freeHead, k.npending, k.ndaemon, k.wheelN = k.slab[:0], nilIdx, 0, 0, 0
	k.overflow, k.overflowMin, k.peekAt, k.peekValid = k.overflow[:0], 0, 0, false
	k.probes, k.nextProbeID, k.inProbe = nil, 0, false
	k.released, k.ready = true, false
	kernels.Put(k)
}

// Now returns the current simulated time.
func (k *Kernel) Now() Tick { return k.now }

// Pending returns the number of scheduled events not yet fired. O(1).
func (k *Kernel) Pending() int { return k.npending }

// PendingWork returns the pending events that represent outstanding work:
// Pending minus the daemon (housekeeping) events. Drain runs until this
// reaches zero. O(1).
func (k *Kernel) PendingWork() int { return k.npending - k.ndaemon }

// Fired returns the total number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// alloc takes a slab slot from the free list, growing the slab when it
// is exhausted. Steady state recycles: the slab stops growing once it
// covers the peak number of simultaneously pending events.
func (k *Kernel) alloc() int32 {
	if idx := k.freeHead; idx != nilIdx {
		k.freeHead = k.slab[idx].next
		return idx
	}
	k.slab = append(k.slab, pendingEvent{})
	return int32(len(k.slab) - 1)
}

// release returns a fired event's slot to the free list, dropping the
// handler reference so the slab never pins it alive.
func (k *Kernel) release(idx int32) {
	e := &k.slab[idx]
	e.h = nil
	e.next = k.freeHead
	k.freeHead = idx
}

// schedule places a filled slab slot into the wheel or the overflow.
func (k *Kernel) schedule(t Tick, h Handler, a, b uint64, daemon bool) {
	if k.inProbe {
		panic("sim: probe callbacks are read-only observers and must not schedule events")
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (at tick %d, now %d)", t, k.now))
	}
	if !k.ready {
		k.init()
	}
	k.seq++
	idx := k.alloc()
	e := &k.slab[idx]
	e.at, e.seq = t, k.seq
	e.h, e.a, e.b = h, a, b
	e.daemon = daemon
	e.next = nilIdx
	k.npending++
	if daemon {
		k.ndaemon++
	}
	if k.peekValid && t < k.peekAt {
		k.peekAt = t
	}
	if t-k.now < wheelSlots {
		// Direct inserts carry monotone seq, so a tail append keeps the
		// bucket in (tick, seq) order.
		k.bucketAppend(int(t&wheelMask), idx)
	} else {
		if len(k.overflow) == 0 || t < k.overflowMin {
			k.overflowMin = t
		}
		k.overflow = append(k.overflow, idx)
	}
}

// bucketAppend pushes idx at the tail of a bucket.
func (k *Kernel) bucketAppend(slot int, idx int32) {
	if k.wheelHead[slot] == nilIdx {
		k.wheelHead[slot] = idx
		k.occ[slot>>6] |= 1 << uint(slot&63)
	} else {
		k.slab[k.wheelTail[slot]].next = idx
	}
	k.wheelTail[slot] = idx
	k.wheelN++
}

// bucketInsertSorted inserts idx into a bucket keeping seq order; used
// only for overflow migration, where seq is not monotone with respect to
// events already in the bucket.
func (k *Kernel) bucketInsertSorted(slot int, idx int32) {
	seq := k.slab[idx].seq
	prev := nilIdx
	for cur := k.wheelHead[slot]; cur != nilIdx && k.slab[cur].seq < seq; cur = k.slab[cur].next {
		prev = cur
	}
	if prev == nilIdx {
		k.slab[idx].next = k.wheelHead[slot]
		if k.wheelHead[slot] == nilIdx {
			k.wheelTail[slot] = idx
			k.occ[slot>>6] |= 1 << uint(slot&63)
		}
		k.wheelHead[slot] = idx
	} else {
		k.slab[idx].next = k.slab[prev].next
		k.slab[prev].next = idx
		if k.slab[idx].next == nilIdx {
			k.wheelTail[slot] = idx
		}
	}
	k.wheelN++
}

// bucketPop removes and returns the bucket head.
func (k *Kernel) bucketPop(slot int) int32 {
	idx := k.wheelHead[slot]
	next := k.slab[idx].next
	k.wheelHead[slot] = next
	if next == nilIdx {
		k.wheelTail[slot] = nilIdx
		k.occ[slot>>6] &^= 1 << uint(slot&63)
	}
	k.wheelN--
	return idx
}

// nextOccupied finds the first occupied slot at or after from in
// circular order. Because every wheel event lies in [now, now+wheelSlots),
// circular distance from now's slot equals temporal distance, so the
// first occupied slot holds the earliest events. The caller guarantees
// the wheel is non-empty.
func (k *Kernel) nextOccupied(from int) int {
	w := from >> 6
	if word := k.occ[w] & (^uint64(0) << uint(from&63)); word != 0 {
		return w<<6 | bits.TrailingZeros64(word)
	}
	for i := 1; i <= wheelWords; i++ {
		ww := (w + i) & (wheelWords - 1)
		word := k.occ[ww]
		if ww == w {
			word &= (1 << uint(from&63)) - 1
		}
		if word != 0 {
			return ww<<6 | bits.TrailingZeros64(word)
		}
	}
	return -1 // unreachable when wheelN > 0
}

// migrate moves overflow events that now fit the wheel window into their
// buckets. Migrated events insert by seq: a same-tick event may have
// been scheduled directly into the bucket (with a later seq) after this
// one was pushed to overflow.
func (k *Kernel) migrate() {
	if len(k.overflow) == 0 || k.overflowMin-k.now >= wheelSlots {
		return
	}
	keep := k.overflow[:0]
	min := maxTick
	for _, idx := range k.overflow {
		at := k.slab[idx].at
		if at-k.now < wheelSlots {
			k.slab[idx].next = nilIdx
			k.bucketInsertSorted(int(at&wheelMask), idx)
		} else {
			keep = append(keep, idx)
			if at < min {
				min = at
			}
		}
	}
	k.overflow = keep
	k.overflowMin = min
}

// popOverflowMin removes the overflow event with the smallest (at, seq).
// Only reached when the wheel is empty, i.e. the next event is at least
// wheelSlots ahead; the overflow list is always small (periodic timers).
func (k *Kernel) popOverflowMin() int32 {
	best := 0
	be := &k.slab[k.overflow[0]]
	for i := 1; i < len(k.overflow); i++ {
		e := &k.slab[k.overflow[i]]
		if e.at < be.at || (e.at == be.at && e.seq < be.seq) {
			best, be = i, e
		}
	}
	idx := k.overflow[best]
	last := len(k.overflow) - 1
	k.overflow[best] = k.overflow[last]
	k.overflow = k.overflow[:last]
	return idx
}

// peek returns the earliest pending tick, running overflow migration so
// that afterwards the earliest event is poppable (in the wheel whenever
// the wheel is non-empty). It refreshes the peek cache.
func (k *Kernel) peek() (Tick, bool) {
	if k.npending == 0 {
		return 0, false
	}
	k.migrate()
	var t Tick
	if k.wheelN > 0 {
		s := k.nextOccupied(int(k.now) & wheelMask)
		t = k.slab[k.wheelHead[s]].at
	} else {
		t = k.overflowMin
	}
	k.peekAt, k.peekValid = t, true
	return t, true
}

// AtEvent schedules an event: h.OnEvent(now, a, b) runs at absolute
// time t. The handler is an interface value the caller constructed once
// (an Event is one), and the payload words travel in the event slab, so
// nothing escapes to the heap per event. Scheduling in the past (t <
// Now) is a programming error and panics: the kernel can never run time
// backwards. Probe callbacks are observers and may not schedule.
func (k *Kernel) AtEvent(t Tick, h Handler, a, b uint64) { k.schedule(t, h, a, b, false) }

// AfterDaemonEvent schedules a housekeeping event d ticks from now.
// Daemon events fire exactly like AtEvent events — same clock, same
// seq stream, same (tick, seq) ordering — but they represent periodic
// background work (a Wear Quota period timer, the eager-pump heartbeat)
// rather than outstanding requests, so Drain does not wait for them:
// once only daemon events remain pending, Drain stops with those events
// still scheduled. A self-rescheduling timer therefore keeps ticking
// across AdvanceTo and AdvanceUntil but can never hang a drain (the bug
// this distinction fixes: Kernel.Drain spun forever under Wear Quota
// policies because the period timer always re-armed itself).
func (k *Kernel) AfterDaemonEvent(d Tick, h Handler, a, b uint64) { k.atDaemonEvent(k.now+d, h, a, b) }

// atDaemonEvent schedules a housekeeping event at absolute time t.
func (k *Kernel) atDaemonEvent(t Tick, h Handler, a, b uint64) { k.schedule(t, h, a, b, true) }

// AddProbe registers a periodic observer: fn fires at ticks now+period,
// now+2·period, … for as long as the kernel advances. Probes are
// deterministic with respect to the pending events — a probe due at tick
// T fires after every event scheduled strictly before T and before any
// event at or after T, and probes due at the same tick fire in
// registration order. Probes never keep the simulation alive (a due time
// beyond the last event or AdvanceTo horizon does not fire), never
// appear in Pending or Fired, and must not schedule events or mutate
// simulated state: they exist so telemetry can snapshot the system
// without perturbing it. A zero or negative period panics.
func (k *Kernel) AddProbe(period Tick, fn Event) ProbeID {
	if period == 0 {
		panic("sim: probe period must be positive")
	}
	k.nextProbeID++
	id := k.nextProbeID
	k.probes = append(k.probes, probe{id: id, period: period, next: k.now + period, fn: fn})
	return id
}

// RemoveProbe unregisters a probe. Unknown ids are ignored.
func (k *Kernel) RemoveProbe(id ProbeID) {
	for i := range k.probes {
		if k.probes[i].id == id {
			k.probes = append(k.probes[:i], k.probes[i+1:]...)
			return
		}
	}
}

// fireProbesTo runs every probe due at or before target, in (due time,
// registration order), advancing the clock to each due time.
func (k *Kernel) fireProbesTo(target Tick) {
	for {
		best := -1
		for i := range k.probes {
			if k.probes[i].next > target {
				continue
			}
			if best < 0 || k.probes[i].next < k.probes[best].next ||
				(k.probes[i].next == k.probes[best].next && k.probes[i].id < k.probes[best].id) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		p := &k.probes[best]
		due := p.next
		p.next += p.period
		if due > k.now {
			k.now = due
		}
		k.inProbe = true
		p.fn(due)
		k.inProbe = false
	}
}

// stepAtMost fires the earliest pending event if it is due at or before
// limit, advancing the clock to its time. Probes due at or before the
// event's tick fire first. It reports whether an event fired.
func (k *Kernel) stepAtMost(limit Tick) bool {
	if k.peekValid && k.peekAt > limit {
		return false // nothing due: the common idle-advance fast path
	}
	// The full peek also migrates, which the pop below relies on: after
	// migration the earliest event is in the wheel iff the wheel is
	// non-empty.
	t, ok := k.peek()
	if !ok || t > limit {
		return false
	}
	k.peekValid = false
	if len(k.probes) > 0 {
		k.fireProbesTo(t)
	}
	var idx int32
	if k.wheelN > 0 {
		idx = k.bucketPop(int(t & wheelMask))
	} else {
		idx = k.popOverflowMin()
	}
	e := &k.slab[idx]
	k.now = e.at
	k.fired++
	k.npending--
	if e.daemon {
		k.ndaemon--
	}
	h, a, b := e.h, e.a, e.b
	k.release(idx)
	h.OnEvent(k.now, a, b)
	return true
}

// AdvanceTo runs every event scheduled at or before t and then sets the
// clock to t. Events fired may schedule further events; those are honoured
// if they also fall at or before t.
func (k *Kernel) AdvanceTo(t Tick) {
	for k.stepAtMost(t) {
	}
	if len(k.probes) > 0 {
		k.fireProbesTo(t)
	}
	if t > k.now {
		k.now = t
	}
}

// AdvanceUntil runs events in order until done() reports true or no events
// remain. It returns true if done() was satisfied. The predicate is checked
// before any event fires and after each one.
func (k *Kernel) AdvanceUntil(done func() bool) bool {
	for {
		if done() {
			return true
		}
		if !k.stepAtMost(maxTick) {
			return false
		}
	}
}

// Drain runs events until no work remains: every non-daemon event has
// fired. Daemon events due before outstanding work still fire in exact
// (tick, seq) order — a quota period can close between two writes — but
// once only daemon events remain the drain stops, leaving them scheduled
// and the clock just before them. Self-rescheduling housekeeping timers
// therefore never hang a drain. Useful at end of simulation and in
// tests. It returns the number of events fired.
func (k *Kernel) Drain() uint64 {
	start := k.fired
	for k.npending > k.ndaemon && k.stepAtMost(maxTick) {
	}
	return k.fired - start
}
