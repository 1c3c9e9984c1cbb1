package mem

import (
	"slices"
	"testing"

	"mellow/internal/config"
	"mellow/internal/policy"
	"mellow/internal/rng"
	"mellow/internal/sim"
)

// checkCensus requires every arena slot in use to be accounted for:
// queued, in flight, or a done read the test still holds.
func checkCensus(t *testing.T, c *Controller, held []*Request, when string) {
	t.Helper()
	doneHeld := 0
	for _, r := range held {
		if r.Done() {
			doneHeld++
		}
	}
	o := c.Occupancy()
	if o.InUse != o.Queued+o.InFlight+doneHeld {
		t.Fatalf("%s: %d slots in use, want %d queued + %d in flight + %d held done reads",
			when, o.InUse, o.Queued, o.InFlight, doneHeld)
	}
}

// TestRequestConservation throws random request mixes with a tiny write
// queue at the controller under policies that cancel, pause, drain and
// write eagerly. The test holds some reads and releases the rest at
// random moments, done or not. Throughout, every slot in use must be
// queued, in flight or held. At Drain():
//
//   - every admitted request completed (or, for an eager write, was
//     dropped as stale) and nothing is queued,
//   - every write pulse ended in exactly one completion, cancellation or
//     pause, and each cancellation or pause re-queued the write once,
//   - the only slots still in use are the reads the test holds, so
//     released slots were recycled rather than leaked.
func TestRequestConservation(t *testing.T) {
	policies := []policy.Spec{
		policy.Norm().WithNC(),
		policy.BMellow().WithSC(),
		policy.BEMellow().WithSC(),
		policy.BEMellow().WithSC().WithWQ(),
		policy.BEMellow().WithWP(),
		policy.Slow().WithSC().WithWP(),
	}
	for _, spec := range policies {
		t.Run(spec.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				src := rng.New(seed)
				cfg := config.Default().Memory
				cfg.WriteQueue, cfg.DrainHigh, cfg.DrainLow = 4, 4, 2
				k := &sim.Kernel{}
				c := New(k, cfg, spec)
				c.SetEagerSource(func() (uint64, bool) {
					if !src.Bool(0.3) {
						return 0, false
					}
					return src.Uintn(1 << 10), true
				})
				var held []*Request
				submitted := uint64(0)
				for i := 0; i < 3000; i++ {
					line := src.Uintn(1 << 10) // small space: forwards, coalescing, stale eagers
					if src.Bool(0.45) {
						held = append(held, c.SubmitRead(line, k.Now()))
						submitted++
					} else {
						c.SubmitWrite(line, k.Now())
					}
					if len(held) > 0 && src.Bool(0.4) {
						j := int(src.Uintn(uint64(len(held))))
						c.Release(held[j])
						held[j] = held[len(held)-1]
						held = held[:len(held)-1]
					}
					if src.Bool(0.2) {
						k.AdvanceTo(k.Now() + sim.Tick(src.Uintn(3000)))
					}
					checkCensus(t, c, held, "mid-run")
				}
				c.Drain()
				checkCensus(t, c, held, "at Drain")

				n, l := c.counts, c.ledger
				if o := c.Occupancy(); o.Queued != 0 {
					t.Fatalf("seed %d: Drain left %+v", seed, o)
				}
				if got := n.Reads + n.Forwarded; got != submitted {
					t.Errorf("seed %d: %d reads serviced + forwarded, %d submitted", seed, got, submitted)
				}
				if n.WriteQueued != n.WritesDone {
					t.Errorf("seed %d: %d writes admitted, %d completed", seed, n.WriteQueued, n.WritesDone)
				}
				if n.EagerQueued != n.EagerDone+l.dropped {
					t.Errorf("seed %d: %d eager writes admitted, %d completed + %d dropped",
						seed, n.EagerQueued, n.EagerDone, l.dropped)
				}
				if want := n.WritesDone + n.EagerDone + n.Cancellations + n.Pauses; l.attempts != want {
					t.Errorf("seed %d: %d write attempts, want %d completions + %d cancellations + %d pauses",
						seed, l.attempts, n.WritesDone+n.EagerDone, n.Cancellations, n.Pauses)
				}
				if l.requeued != n.Cancellations+n.Pauses {
					t.Errorf("seed %d: %d re-queues for %d cancellations + %d pauses",
						seed, l.requeued, n.Cancellations, n.Pauses)
				}
				// Let the last reads' data arrive; then only held reads remain.
				k.Drain()
				if o := c.Occupancy(); o.InUse != len(held) {
					t.Errorf("seed %d: %d slots in use after Drain, want the %d held reads", seed, o.InUse, len(held))
				}
				if n.Cancellations+n.Pauses == 0 {
					t.Errorf("seed %d: no write was preempted", seed)
				}
				if c.arena.n <= uint32(c.Occupancy().InUse) {
					t.Errorf("seed %d: no slot was ever recycled", seed)
				}
			}
		})
	}
}

// TestStaleCompletionAfterSlotReuse builds the case slot reuse must
// survive under B-Mellow+SC, where a read cancels a slow write and the
// write's first completion event goes stale. A slow write W0 is
// cancelled, retried at normal speed (a second write, W1, is queued for
// the bank, and B-Mellow slows only a bank's sole write) and completes
// before the stale event is due. W1 then starts slow and is cancelled
// in turn, while a new write W2 takes W0's recycled slot and starts its
// slow pulse once W1's retry ends — so W2 holds the bank when W0's
// stale event fires. The event must change nothing: W2 keeps the bank
// and completes once, at the end of its own pulse.
func TestStaleCompletionAfterSlotReuse(t *testing.T) {
	k, c := newCtl(policy.BMellow().WithSC())
	const bank = 0
	b := &c.banks[bank]
	// Open the row first, so the cancelling reads are row hits.
	held := []*Request{c.SubmitRead(lineForBank(bank, 2), 0)}
	c.WaitRead(held[0])

	c.SubmitWrite(lineForBank(bank, 1), k.Now())
	k.AdvanceTo(k.Now() + 1)
	w0 := b.cur
	if w0 == nil || w0.mode == 0 || !b.curCancellable {
		t.Fatalf("W0 not issued as a cancellable slow write: %+v", w0)
	}
	slot, staleAt := w0.idx, b.freeAt
	held = append(held, c.SubmitRead(lineForBank(bank, 3), k.Now()))
	c.SubmitWrite(lineForBank(bank, 4), k.Now()) // W1
	for c.counts.WritesDone == 0 {
		k.AdvanceTo(k.Now() + 1)
	}
	if k.Now() >= staleAt || c.counts.Cancellations != 1 {
		t.Fatalf("W0's retry finished at %d after %d cancellations; its stale event is due at %d",
			k.Now(), c.counts.Cancellations, staleAt)
	}

	c.SubmitWrite(lineForBank(bank, 6), k.Now()) // W2
	w2 := c.writeQ.find(bank, lineForBank(bank, 6))
	if w2 == nil || w2.idx != slot {
		t.Fatalf("W2 did not reuse W0's slot %d: %+v", slot, w2)
	}
	held = append(held, c.SubmitRead(lineForBank(bank, 5), k.Now())) // cancels W1
	k.AdvanceTo(staleAt - 1)
	if b.cur != w2 || w2.attempts != 1 || c.counts.Cancellations != 2 {
		t.Fatalf("before the stale event the bank holds %+v after %d cancellations, want W2 on its first attempt",
			b.cur, c.counts.Cancellations)
	}
	end, before := b.freeAt, c.counts
	k.AdvanceTo(staleAt) // W0's stale completion event fires here
	if b.cur != w2 || w2.done || c.counts != before || b.freeAt != end {
		t.Fatalf("stale completion changed state: cur %p (want W2 %p), done %v, counts %+v -> %+v",
			b.cur, w2, w2.done, before, c.counts)
	}
	c.Drain()
	if c.counts.WritesDone != 3 {
		t.Errorf("%d writes completed, want 3", c.counts.WritesDone)
	}
	if k.Now() < end {
		t.Errorf("drained at %d, before W2's pulse ends at %d", k.Now(), end)
	}
	checkCensus(t, c, held, "at Drain")
}

// TestRecycledArenaStartsFresh fills an arena past one chunk with dirty
// requests, a third of them back on the free list, recycles it, and
// wants each chunk the next arena takes zeroed exactly as a fresh one,
// whether or not it is a recycled one. Most rounds do get them (the race
// detector's pool drops some). A recycled arena resolves no index.
func TestRecycledArenaStartsFresh(t *testing.T) {
	const rounds, fill = 8, 1<<reqChunkBits + 100
	reused := 0
	var released []*reqChunk
	for round := 0; round < rounds; round++ {
		var a reqArena
		reqs := make([]*Request, fill)
		for i := range reqs {
			r := a.alloc()
			if r.idx&(1<<reqChunkBits-1) == 0 {
				c := a.chunks[len(a.chunks)-1]
				if slices.Contains(released, c) {
					reused++
				}
				for j := range c {
					want := Request{}
					if j == 0 {
						want.idx = r.idx // stamped by this alloc
					}
					if c[j] != want {
						t.Fatalf("round %d: slot %d of a new chunk holds %+v, want %+v", round, j, c[j], want)
					}
				}
			}
			*r = Request{Kind: KindWrite, Line: 7, Bank: 3, done: true, attempts: 2, idx: r.idx, gen: 5, holds: 1, next: r, prev: r}
			reqs[i] = r
		}
		for i := 0; i < fill; i += 3 {
			a.release(reqs[i])
		}
		released = a.chunks
		a.recycle()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("a recycled arena resolved an index")
				}
			}()
			a.at(0)
		}()
	}
	if reused == 0 {
		t.Errorf("no round of %d reused a recycled chunk", rounds)
	}
}
