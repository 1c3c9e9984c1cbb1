package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refKernel is the pre-wheel reference implementation: a container/heap
// priority queue ordered by (at, seq) with the same probe interleaving
// rules. The differential tests below run random schedules against both
// implementations and require identical fire order — including same-tick
// seq ties and probe add/remove interleaving — so the wheel can never
// silently drift from the documented ordering contract.
type refKernel struct {
	now    Tick
	seq    uint64
	events refHeap

	probes      []probe
	nextProbeID ProbeID
	inProbe     bool
}

type refEvent struct {
	at   Tick
	seq  uint64
	fire Event
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

func (k *refKernel) Now() Tick { return k.now }

func (k *refKernel) at(t Tick, fn Event) {
	if k.inProbe {
		panic("ref: schedule from probe")
	}
	if t < k.now {
		panic("ref: event scheduled in the past")
	}
	k.seq++
	heap.Push(&k.events, refEvent{at: t, seq: k.seq, fire: fn})
}

func (k *refKernel) after(d Tick, fn Event) { k.at(k.now+d, fn) }

func (k *refKernel) AddProbe(period Tick, fn Event) ProbeID {
	k.nextProbeID++
	id := k.nextProbeID
	k.probes = append(k.probes, probe{id: id, period: period, next: k.now + period, fn: fn})
	return id
}

func (k *refKernel) RemoveProbe(id ProbeID) {
	for i := range k.probes {
		if k.probes[i].id == id {
			k.probes = append(k.probes[:i], k.probes[i+1:]...)
			return
		}
	}
}

func (k *refKernel) fireProbesTo(target Tick) {
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

func (k *refKernel) step() {
	if len(k.probes) > 0 {
		k.fireProbesTo(k.events[0].at)
	}
	ev := heap.Pop(&k.events).(refEvent)
	k.now = ev.at
	ev.fire(k.now)
}

func (k *refKernel) AdvanceTo(t Tick) {
	for len(k.events) > 0 && k.events[0].at <= t {
		k.step()
	}
	if len(k.probes) > 0 {
		k.fireProbesTo(t)
	}
	if t > k.now {
		k.now = t
	}
}

func (k *refKernel) Drain() {
	for len(k.events) > 0 {
		k.step()
	}
}

// trace records one callback invocation: which event/probe fired, at
// what reported time, with the observer's clock reading.
type fireRecord struct {
	id    int
	now   Tick
	probe bool
}

// scheduler abstracts the two kernels for the differential driver.
type scheduler interface {
	Now() Tick
	at(Tick, Event)
	after(Tick, Event)
	AddProbe(Tick, Event) ProbeID
	RemoveProbe(ProbeID)
	AdvanceTo(Tick)
	drainAll()
}

func (k *Kernel) drainAll()    { k.Drain() }
func (k *refKernel) drainAll() { k.Drain() }

// randomSchedule drives one kernel through a seeded random workload:
// events at random offsets (same-tick collisions are frequent by
// construction), events chaining further events, occasional far-future
// events that exercise the overflow path, and probe add/remove
// interleaved mid-run. It returns the full fire log.
func randomSchedule(k scheduler, seed int64) []fireRecord {
	rnd := rand.New(rand.NewSource(seed))
	var log []fireRecord
	nextID := 0
	var chain func(depth int) Event
	chain = func(depth int) Event {
		id := nextID
		nextID++
		return func(now Tick) {
			log = append(log, fireRecord{id: id, now: now})
			if depth > 0 && rnd.Intn(3) == 0 {
				// Re-entrant scheduling, often at the current tick.
				k.after(Tick(rnd.Intn(8)), chain(depth-1))
			}
		}
	}

	var probeIDs []ProbeID
	addProbe := func() {
		id := nextID
		nextID++
		period := Tick(1 + rnd.Intn(200))
		probeIDs = append(probeIDs, k.AddProbe(period, func(now Tick) {
			log = append(log, fireRecord{id: id, now: now, probe: true})
		}))
	}

	for round := 0; round < 30; round++ {
		n := rnd.Intn(40)
		for i := 0; i < n; i++ {
			var off Tick
			switch rnd.Intn(10) {
			case 0:
				off = 0 // same-tick pile-up
			case 1:
				off = Tick(5000 + rnd.Intn(20000)) // beyond the wheel window
			case 2:
				off = Tick(rnd.Intn(2)) * wheelSlots // exactly on the horizon
			default:
				off = Tick(rnd.Intn(600))
			}
			k.at(k.Now()+off, chain(2))
		}
		switch rnd.Intn(4) {
		case 0:
			addProbe()
		case 1:
			if len(probeIDs) > 0 {
				i := rnd.Intn(len(probeIDs))
				k.RemoveProbe(probeIDs[i])
				probeIDs = append(probeIDs[:i], probeIDs[i+1:]...)
			}
		}
		k.AdvanceTo(k.Now() + Tick(rnd.Intn(3000)))
	}
	k.drainAll()
	return log
}

// TestWheelMatchesReferenceHeap is the differential property test: for
// many random seeds the timer-wheel kernel and the reference heap kernel
// must produce byte-identical fire logs — same callbacks, same order,
// same reported times.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		got := randomSchedule(&Kernel{}, int64(seed))
		want := randomSchedule(&refKernel{}, int64(seed))
		if len(got) != len(want) {
			t.Fatalf("seed %d: wheel fired %d callbacks, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: divergence at fire %d: wheel %+v, reference %+v",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestWheelHorizonBoundary pins the exact wheel/overflow boundary: an
// event at now+wheelSlots-1 is the last direct insert, now+wheelSlots
// the first overflow, and both fire in time order with same-tick FIFO
// preserved across the boundary.
func TestWheelHorizonBoundary(t *testing.T) {
	var k Kernel
	var order []int
	k.at(wheelSlots, func(Tick) { order = append(order, 2) })   // overflow
	k.at(wheelSlots-1, func(Tick) { order = append(order, 1) }) // wheel
	k.at(wheelSlots, func(Tick) { order = append(order, 3) })   // overflow, later seq
	k.Drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order across the wheel horizon = %v, want [1 2 3]", order)
	}
}

// TestOverflowMigrationSeqOrder forces the subtle case the migration
// path must handle: an event overflows, the clock approaches, a second
// event is scheduled directly into the same future tick (with a later
// seq), and then the overflow migrates into the now-shared bucket. The
// earlier-seq migrant must fire first.
func TestOverflowMigrationSeqOrder(t *testing.T) {
	var k Kernel
	var order []int
	target := Tick(wheelSlots + 100)
	k.at(target, func(Tick) { order = append(order, 1) }) // overflows (seq 1)
	k.at(200, func(Tick) {
		// now = 200: target is inside the window, so this goes straight
		// into the bucket — but the seq-1 event may still sit in overflow.
		k.at(target, func(Tick) { order = append(order, 2) })
	})
	k.Drain()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("migrated/direct same-tick order = %v, want [1 2]", order)
	}
}

// TestPendingIsO1AndExact checks Pending through a churny schedule.
func TestPendingIsO1AndExact(t *testing.T) {
	var k Kernel
	for i := 0; i < 100; i++ {
		k.at(Tick(i*7), func(Tick) {})
	}
	k.at(Tick(1e6), func(Tick) {}) // overflow entry
	if got := k.Pending(); got != 101 {
		t.Fatalf("Pending = %d, want 101", got)
	}
	k.AdvanceTo(7 * 49)
	if got := k.Pending(); got != 51 {
		t.Fatalf("Pending after partial advance = %d, want 51", got)
	}
	k.Drain()
	if got := k.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

// countingHandler is a component-style handler that reads its payload.
type countingHandler struct {
	fires []uint64
	k     *Kernel
}

func (h *countingHandler) OnEvent(now Tick, a, b uint64) {
	h.fires = append(h.fires, a<<32|b)
	if a < 3 {
		h.k.AfterEvent(10, h, a+1, b)
	}
}

// TestTypedEventsInterleaveWithClosures checks a component handler and
// an Event share one clock, ordering and seq stream.
func TestTypedEventsInterleaveWithClosures(t *testing.T) {
	var k Kernel
	h := &countingHandler{k: &k}
	var closures []Tick
	k.AtEvent(5, h, 0, 7)
	k.at(5, func(now Tick) { closures = append(closures, now) })
	k.AtEvent(5, h, 1, 9)
	k.Drain()
	// Chained: (0,7) at 5 → (1,7) at 15 → (2,7) at 25 → (3,7) at 35, and
	// (1,9) at 5 → ... → (3,9) at 25.
	if len(closures) != 1 || closures[0] != 5 {
		t.Fatalf("closure events = %v, want [5]", closures)
	}
	want := []uint64{0<<32 | 7, 1<<32 | 9, 1<<32 | 7, 2<<32 | 9, 2<<32 | 7, 3<<32 | 9, 3<<32 | 7}
	if len(h.fires) != len(want) {
		t.Fatalf("typed fires = %d, want %d", len(h.fires), len(want))
	}
	for i := range want {
		if h.fires[i] != want[i] {
			t.Fatalf("typed fire order %v, want %v", h.fires, want)
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", k.Pending())
	}
}

// TestSlabRecyclesSlots checks the free list actually recycles: a
// schedule/fire loop far longer than the peak pending count must not
// grow the slab beyond that peak.
func TestSlabRecyclesSlots(t *testing.T) {
	var k Kernel
	for i := 0; i < 10_000; i++ {
		k.after(3, func(Tick) {})
		k.after(7, func(Tick) {})
		k.AdvanceTo(k.Now() + 10)
	}
	if len(k.slab) > 16 {
		t.Fatalf("slab grew to %d slots for a peak pending of 2", len(k.slab))
	}
}
