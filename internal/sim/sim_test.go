package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestUnitConversions(t *testing.T) {
	if NS(150) != 300 {
		t.Errorf("NS(150) = %d, want 300", NS(150))
	}
	if MemCycle != 5*CPUCycle {
		t.Errorf("memory cycle must be 5 CPU cycles, got %d", MemCycle)
	}
	if got := Tick(300).Nanoseconds(); got != 150 {
		t.Errorf("300 ticks = %v ns, want 150", got)
	}
	if got := NS(1e9).Seconds(); got != 1.0 {
		t.Errorf("1e9 ns = %v s, want 1", got)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	var k Kernel
	var order []int
	k.at(30, func(Tick) { order = append(order, 3) })
	k.at(10, func(Tick) { order = append(order, 1) })
	k.at(20, func(Tick) { order = append(order, 2) })
	k.AdvanceTo(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
	if k.Now() != 100 {
		t.Errorf("Now = %d, want 100", k.Now())
	}
}

func TestSameTickFIFO(t *testing.T) {
	var k Kernel
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.at(5, func(Tick) { order = append(order, i) })
	}
	k.AdvanceTo(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-tick events not FIFO: %v", order)
		}
	}
}

func TestEventSchedulesEvent(t *testing.T) {
	var k Kernel
	hits := 0
	var chain Event
	chain = func(now Tick) {
		hits++
		if hits < 5 {
			k.after(10, chain)
		}
	}
	k.at(0, chain)
	k.AdvanceTo(100)
	if hits != 5 {
		t.Errorf("chained events fired %d times, want 5", hits)
	}
	if k.Pending() != 0 {
		t.Errorf("pending = %d, want 0", k.Pending())
	}
}

func TestAdvanceToStopsAtBoundary(t *testing.T) {
	var k Kernel
	fired := false
	k.at(50, func(Tick) { fired = true })
	k.AdvanceTo(49)
	if fired {
		t.Fatal("event at 50 fired during AdvanceTo(49)")
	}
	if k.Now() != 49 {
		t.Errorf("Now = %d, want 49", k.Now())
	}
	k.AdvanceTo(50)
	if !fired {
		t.Fatal("event at 50 did not fire during AdvanceTo(50)")
	}
}

func TestAdvanceUntil(t *testing.T) {
	var k Kernel
	count := 0
	for i := Tick(1); i <= 10; i++ {
		k.at(i*10, func(Tick) { count++ })
	}
	ok := k.AdvanceUntil(func() bool { return count >= 4 })
	if !ok || count != 4 {
		t.Fatalf("AdvanceUntil stopped with count=%d ok=%v, want 4 true", count, ok)
	}
	if k.Now() != 40 {
		t.Errorf("Now = %d, want 40", k.Now())
	}
	ok = k.AdvanceUntil(func() bool { return count >= 100 })
	if ok {
		t.Error("AdvanceUntil reported success with unsatisfiable predicate")
	}
	if count != 10 {
		t.Errorf("count = %d, want all 10 events fired", count)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	var k Kernel
	k.AdvanceTo(100)
	k.at(50, func(Tick) {})
}

func TestDrain(t *testing.T) {
	var k Kernel
	for i := Tick(0); i < 7; i++ {
		k.at(i*1000, func(Tick) {})
	}
	if n := k.Drain(); n != 7 {
		t.Errorf("Drain fired %d, want 7", n)
	}
	if k.Fired() != 7 {
		t.Errorf("Fired = %d, want 7", k.Fired())
	}
}

// Property: for any set of event times, events fire in nondecreasing time
// order and the clock never runs backwards.
func TestQuickEventOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		var k Kernel
		var fired []Tick
		for _, raw := range times {
			at := Tick(raw)
			k.at(at, func(now Tick) { fired = append(fired, now) })
		}
		k.AdvanceTo(1 << 20)
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProbeFiresAtPeriodMultiples(t *testing.T) {
	var k Kernel
	var fired []Tick
	k.AddProbe(10, func(now Tick) { fired = append(fired, now) })
	for i := Tick(1); i <= 50; i++ {
		k.at(i, func(Tick) {})
	}
	k.Drain()
	want := []Tick{10, 20, 30, 40, 50}
	if len(fired) != len(want) {
		t.Fatalf("probe fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("probe fired at %v, want %v", fired, want)
		}
	}
}

func TestProbeObservesStateBeforeItsTick(t *testing.T) {
	// A probe due at tick T fires after every event strictly before T and
	// before any event at T.
	var k Kernel
	events := 0
	var seen []int
	k.AddProbe(10, func(Tick) { seen = append(seen, events) })
	for i := Tick(5); i <= 30; i += 5 {
		k.at(i, func(Tick) { events++ })
	}
	k.Drain()
	// Due at 10: events at 5 fired (1). Due at 20: 5,10,15 fired (3).
	// Due at 30: 5..25 fired (5).
	want := []int{1, 3, 5}
	if len(seen) != len(want) {
		t.Fatalf("probe observations = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("probe observations = %v, want %v", seen, want)
		}
	}
}

func TestProbesFireDuringAdvanceToWithoutEvents(t *testing.T) {
	var k Kernel
	var fired []Tick
	k.AddProbe(7, func(now Tick) { fired = append(fired, now) })
	k.AdvanceTo(20)
	if len(fired) != 2 || fired[0] != 7 || fired[1] != 14 {
		t.Fatalf("probe fired at %v, want [7 14]", fired)
	}
	if k.Now() != 20 {
		t.Errorf("Now = %d, want 20", k.Now())
	}
	// Probes do not fire past the horizon and do not keep time alive.
	if k.Pending() != 0 {
		t.Errorf("probes leaked into the event heap: pending = %d", k.Pending())
	}
}

func TestProbeRegistrationOrderBreaksTies(t *testing.T) {
	var k Kernel
	var order []int
	k.AddProbe(10, func(Tick) { order = append(order, 1) })
	k.AddProbe(5, func(Tick) { order = append(order, 2) })
	k.AdvanceTo(10)
	// Tick 5: probe 2. Tick 10: both due; registration order wins.
	want := []int{2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("probe order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("probe order = %v, want %v", order, want)
		}
	}
}

func TestRemoveProbe(t *testing.T) {
	var k Kernel
	fired := 0
	id := k.AddProbe(10, func(Tick) { fired++ })
	k.AdvanceTo(25)
	k.RemoveProbe(id)
	k.AdvanceTo(100)
	if fired != 2 {
		t.Errorf("probe fired %d times, want 2 (removed after tick 25)", fired)
	}
	k.RemoveProbe(id) // unknown id is a no-op
}

func TestProbeDoesNotPerturbEvents(t *testing.T) {
	// The same event workload, with and without a probe, fires the same
	// events at the same times and leaves the same clock.
	run := func(withProbe bool) (fired []Tick, now Tick, count uint64) {
		var k Kernel
		if withProbe {
			k.AddProbe(3, func(Tick) {})
		}
		var chain Event
		chain = func(t Tick) {
			fired = append(fired, t)
			if t < 50 {
				k.after(7, chain)
			}
		}
		k.at(1, chain)
		k.Drain()
		return fired, k.Now(), k.Fired()
	}
	f1, n1, c1 := run(false)
	f2, n2, c2 := run(true)
	if n1 != n2 || c1 != c2 || len(f1) != len(f2) {
		t.Fatalf("probe perturbed the run: now %d vs %d, fired %d vs %d", n1, n2, c1, c2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("event times diverge at %d: %d vs %d", i, f1[i], f2[i])
		}
	}
}

func TestProbeCannotSchedule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling from a probe did not panic")
		}
	}()
	var k Kernel
	k.AddProbe(5, func(Tick) { k.at(100, func(Tick) {}) })
	k.AdvanceTo(10)
}

func TestZeroProbePeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero probe period did not panic")
		}
	}()
	var k Kernel
	k.AddProbe(0, func(Tick) {})
}

func TestSchedulePastPanicNamesTicks(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("scheduling in the past did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		for _, want := range []string{"at tick 50", "now 100"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	var k Kernel
	k.AdvanceTo(100)
	k.at(50, func(Tick) {})
}

// BenchmarkEventLoop measures the kernel hot path: schedule + fire, with
// no probes registered (the common case the probe hook must not slow).
func BenchmarkEventLoop(b *testing.B) {
	var k Kernel
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.after(1, func(Tick) {})
		k.AdvanceTo(k.Now() + 1)
	}
}

// BenchmarkEventLoopWithProbe is the same loop with one registered probe
// firing every 1000 ticks.
func BenchmarkEventLoopWithProbe(b *testing.B) {
	var k Kernel
	k.AddProbe(1000, func(Tick) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.after(1, func(Tick) {})
		k.AdvanceTo(k.Now() + 1)
	}
}
