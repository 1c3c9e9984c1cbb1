package cpu

import (
	"strings"
	"testing"

	"mellow/internal/cache"
	"mellow/internal/config"
	"mellow/internal/mem"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/sim"
	"mellow/internal/trace"
)

// checkMemo compares the core's memoised bookkeeping with fresh scans
// of its queues: the pending counts the MSHR checks read, and the
// passes over the fetches and the prefetch FIFO that are skipped while
// ReadsDone stands still, which are exact only if nothing there is done.
func checkMemo(t *testing.T, step int, c *Core) {
	t.Helper()
	if got, want := c.loadsOutstanding(), c.loadReqs.pending(); got != want {
		t.Fatalf("step %d: %d pending loads memoised, a scan finds %d", step, got, want)
	}
	if got, want := c.memOutstanding(), len(c.fetches)+c.prefetchOutstanding()+c.loadReqs.pending(); got != want {
		t.Fatalf("step %d: %d MSHRs in use memoised, a scan finds %d", step, got, want)
	}
	d := c.ctl.ReadsDone()
	if d == c.drainAt {
		for _, e := range c.pf.inflight {
			if e.req.Done() {
				t.Fatalf("step %d: prefetch of line %#x is done, but no read completed since the last drain", step, e.line)
			}
		}
	}
	if d == c.fetchesAt {
		for _, r := range c.fetches {
			if r.Done() {
				t.Fatalf("step %d: fetch of line %#x is done, but no read completed since the last pass", step, r.Line)
			}
		}
	}
}

// TestMemoMatchesScans runs the workloads of TestSlotsInUseMatchHolds,
// plus hmmer, whose hot set with the shrunk caches makes prefetches that
// are forwarded from queued write-backs, alone and as two-core mixes
// sharing one controller the way core.RunMix does. After every step it
// requires the memoised counts and skipped passes to agree with fresh
// scans, and ReadsDone never to go back, not even across the ResetStats
// that ends a warm-up.
func TestMemoMatchesScans(t *testing.T) {
	for _, mix := range [][]string{{"lbm"}, {"mcf"}, {"stream"}, {"gups"}, {"hmmer"}, {"lbm", "mcf"}, {"stream", "gups"}, {"hmmer", "lbm"}} {
		t.Run(strings.Join(mix, "+"), func(t *testing.T) {
			cfg := config.Default()
			cfg.Caches.L2.SizeBytes = 16 << 10
			cfg.Caches.L3.SizeBytes = 64 << 10
			k := &sim.Kernel{}
			ctl := mem.New(k, cfg.Memory, policy.BMellow().WithSC())
			cores := make([]*Core, len(mix))
			for i, name := range mix {
				w, err := trace.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				hier := cache.NewHierarchy(cfg.Caches, rng.New(uint64(i+1)))
				cores[i] = New(cfg, hier, ctl, w.New(uint64(i+1)))
			}
			var last uint64
			for i := 0; i < 20000; i++ {
				if i == 10000 {
					ctl.ResetStats()
				}
				// Step the core furthest behind, as RunMix does.
				pick := cores[0]
				for _, c := range cores[1:] {
					if c.Cycles() < pick.Cycles() {
						pick = c
					}
				}
				pick.Step()
				d := ctl.ReadsDone()
				if d < last {
					t.Fatalf("step %d: ReadsDone went back from %d to %d", i, last, d)
				}
				last = d
				for _, c := range cores {
					checkMemo(t, i, c)
				}
			}
			if last < 1000 {
				t.Errorf("only %d reads completed", last)
			}
		})
	}
}
