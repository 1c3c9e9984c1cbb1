package sim

import "testing"

// tickerHandler is a self-rescheduling daemon: every fire re-arms itself
// `period` ticks later, exactly like the Wear Quota period timer and the
// eager-pump heartbeat in the memory controller.
type tickerHandler struct {
	k      *Kernel
	period Tick
	fires  []Tick
}

func (h *tickerHandler) OnEvent(now Tick, a, b uint64) {
	h.fires = append(h.fires, now)
	h.k.AfterDaemonEvent(h.period, h, a, b)
}

// TestDaemonEventsFireLikeNormalEvents: daemon status changes nothing
// about when or in what order an event fires.
func TestDaemonEventsFireLikeNormalEvents(t *testing.T) {
	var k Kernel
	var order []int
	h := &tickerHandler{k: &k, period: 1000}
	k.atDaemonEvent(10, h, 0, 0)
	k.at(10, func(Tick) { order = append(order, 1) })
	k.at(5, func(Tick) { order = append(order, 0) })
	k.AdvanceTo(12)
	if len(h.fires) != 1 || h.fires[0] != 10 {
		t.Fatalf("daemon fires = %v, want [10]", h.fires)
	}
	// Same-tick FIFO: the daemon was scheduled before the closure at 10.
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("closure order = %v, want [0 1]", order)
	}
}

// TestPendingWorkExcludesDaemons: Pending counts everything,
// PendingWork only the non-daemon events.
func TestPendingWorkExcludesDaemons(t *testing.T) {
	var k Kernel
	h := &tickerHandler{k: &k, period: 50}
	k.atDaemonEvent(10, h, 0, 0)
	k.at(20, func(Tick) {})
	k.at(30, func(Tick) {})
	if k.Pending() != 3 || k.PendingWork() != 2 {
		t.Fatalf("Pending/PendingWork = %d/%d, want 3/2", k.Pending(), k.PendingWork())
	}
	k.AdvanceTo(25)
	// Daemon fired at 10 and re-armed at 60; one closure fired.
	if k.Pending() != 2 || k.PendingWork() != 1 {
		t.Fatalf("after advance: Pending/PendingWork = %d/%d, want 2/1", k.Pending(), k.PendingWork())
	}
	k.Drain()
	if k.PendingWork() != 0 {
		t.Fatalf("after drain: PendingWork = %d, want 0", k.PendingWork())
	}
}

// TestDrainTerminatesWithSelfReschedulingDaemon is the kernel-level
// regression for the Drain()-hangs-under-Wear-Quota bug: a periodic
// timer that always re-arms itself must not keep Drain alive.
func TestDrainTerminatesWithSelfReschedulingDaemon(t *testing.T) {
	var k Kernel
	h := &tickerHandler{k: &k, period: 100}
	k.atDaemonEvent(100, h, 0, 0)
	work := 0
	k.at(350, func(Tick) { work++ })
	fired := k.Drain()
	// The daemon fires at 100, 200, 300 (all due before the work event at
	// 350), then the work fires and the drain stops with the 400 tick
	// still armed.
	if work != 1 {
		t.Fatalf("work event did not fire")
	}
	if len(h.fires) != 3 || h.fires[2] != 300 {
		t.Fatalf("daemon fires = %v, want [100 200 300]", h.fires)
	}
	if fired != 4 {
		t.Fatalf("Drain fired %d events, want 4", fired)
	}
	if k.Now() != 350 {
		t.Fatalf("Now = %d after drain, want 350", k.Now())
	}
	if k.Pending() != 1 || k.PendingWork() != 0 {
		t.Fatalf("Pending/PendingWork = %d/%d, want 1/0 (daemon left armed)", k.Pending(), k.PendingWork())
	}
	// A drain with only daemons pending fires nothing and returns.
	if fired := k.Drain(); fired != 0 {
		t.Fatalf("idle drain fired %d events", fired)
	}
	// The daemon keeps ticking under explicit time advance.
	k.AdvanceTo(1000)
	if len(h.fires) != 10 {
		t.Fatalf("daemon fired %d times by t=1000, want 10 (100..1000)", len(h.fires))
	}
}

// TestDrainRunsWorkScheduledByDaemons: when a daemon schedules real
// work while draining, that work still completes before Drain returns.
func TestDrainRunsWorkScheduledByDaemons(t *testing.T) {
	var k Kernel
	done := 0
	var h Handler
	h = handlerFunc(func(now Tick, a, b uint64) {
		if a < 3 {
			// First fires enqueue real work and re-arm.
			k.at(now+5, func(Tick) { done++ })
			k.AfterDaemonEvent(10, h, a+1, 0)
		}
	})
	k.atDaemonEvent(10, h, 0, 0)
	k.at(100, func(Tick) { done++ })
	k.Drain()
	if done != 4 {
		t.Fatalf("done = %d, want 4 (3 daemon-spawned + 1 direct)", done)
	}
	if k.PendingWork() != 0 {
		t.Fatalf("work left pending after drain")
	}
}

// handlerFunc adapts a closure to the Handler interface for tests.
type handlerFunc func(now Tick, a, b uint64)

func (f handlerFunc) OnEvent(now Tick, a, b uint64) { f(now, a, b) }
