package cpu

import (
	"testing"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/mem"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/sim"
	"mellow/internal/trace"
)

// heldDone counts the distinct completed reads the core still refers
// to: a done read leaves the controller's queues and banks, so only the
// core's holds keep its slot in use.
func heldDone(c *Core) int {
	seen := make(map[*mem.Request]bool)
	add := func(r *mem.Request) {
		if r != nil && r.Done() {
			seen[r] = true
		}
	}
	for i := 0; i < c.loads.len(); i++ {
		add(c.loads.at(i).req)
	}
	for _, r := range c.fetches {
		add(r)
	}
	for _, e := range c.pf.inflight {
		add(e.req)
	}
	for _, r := range c.pf.index {
		add(r)
	}
	add(c.lastLoadReq)
	return len(seen)
}

// TestSlotsInUseMatchHolds runs streaming and pointer-chasing workloads
// (prefetches shared with demand loads, store-allocate fetches,
// dependent loads) under B-Mellow+SC, with caches shrunk so write-backs
// and cancellations start at once, and requires,
// after every step, that the controller's slots in use equal its queued
// plus in-flight requests plus the done reads the core holds. A read
// released too early would be counted twice or recycled while in use; a
// hold never released would leak a slot, which the bound on the arena
// size catches.
func TestSlotsInUseMatchHolds(t *testing.T) {
	for _, name := range []string{"lbm", "mcf", "stream", "gups"} {
		t.Run(name, func(t *testing.T) {
			w, err := trace.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config.Default()
			cfg.Caches.L2.SizeBytes = 16 << 10
			cfg.Caches.L3.SizeBytes = 64 << 10
			k := &sim.Kernel{}
			hier := cache.NewHierarchy(cfg.Caches, rng.New(1))
			ctl := mem.New(k, cfg.Memory, policy.BMellow().WithSC())
			ctl.SetEagerSource(hier.EagerCandidate)
			c := New(cfg, hier, ctl, w.New(1))
			for i := 0; i < 20000; i++ {
				c.Step()
				o := ctl.Occupancy()
				if held := heldDone(c); o.InUse != o.Queued+o.InFlight+held {
					t.Fatalf("step %d: %d slots in use, want %d queued + %d in flight + %d held by the core",
						i, o.InUse, o.Queued, o.InFlight, held)
				}
			}
			// Live requests are bounded by the queues, the MSHRs and the
			// ROB, so a run reuses a few hundred slots rather than taking
			// one per memory operation.
			if o := ctl.Occupancy(); o.InUse > cfg.CPU.ROBEntries+cfg.Caches.L3.MSHRs+64 {
				t.Errorf("%d slots in use after the run", o.InUse)
			}
			if n := ctl.Snapshot(); n.Reads < 1000 || n.WritesDone < 100 || n.Cancellations == 0 {
				t.Errorf("too little memory traffic: %d reads, %d writes, %d cancellations",
					n.Reads, n.WritesDone, n.Cancellations)
			}
		})
	}
}
