package mem

import (
	"sync"

	"mellow/internal/sim"
)

// This file holds the controller's indexed request containers: a chunked
// request arena with a free list (so the hot path never allocates per
// request) and the intrusive per-bank FIFO queues that replaced the old
// []*Request slices with their per-issue linear scans.

// reqChunkBits sizes the arena chunks: 512 requests (~64 KB) each.
const reqChunkBits = 9

// reqChunk is one arena chunk, the unit a released arena recycles.
type reqChunk [1 << reqChunkBits]Request

// reqChunks holds the zeroed chunks of released arenas: a run's first
// chunk is most of what a short simulation would otherwise allocate.
var reqChunks = sync.Pool{New: func() any { return new(reqChunk) }}

// reqArena hands out Requests from chunks that never move, so a
// *Request stays valid while its slot is in use, and recycles slots
// through a free list linked by Request.next. A run's arena therefore
// grows to the most requests live at once, not to its total memory
// traffic. The ownership rules that decide when a slot returns to the
// list are the controller's (see Controller.Release).
type reqArena struct {
	chunks []*reqChunk
	n      uint32   // slots ever handed out
	free   *Request // recycled slots, most recently freed first
	nfree  int
}

// alloc returns a zeroed Request with its arena index stamped. A
// recycled slot keeps its issue generation, so events naming the slot's
// earlier occupants never match the new one.
func (a *reqArena) alloc() *Request {
	if r := a.free; r != nil {
		a.free, a.nfree = r.next, a.nfree-1
		*r = Request{idx: r.idx, gen: r.gen}
		return r
	}
	ci, off := int(a.n>>reqChunkBits), int(a.n&(1<<reqChunkBits-1))
	if off == 0 {
		a.chunks = append(a.chunks, reqChunks.Get().(*reqChunk))
	}
	r := &a.chunks[ci][off]
	r.idx = a.n
	a.n++
	return r
}

// release returns a slot to the free list. The caller guarantees no
// queue, bank or holder references it any more.
func (a *reqArena) release(r *Request) {
	r.next, r.prev = a.free, nil
	a.free = r
	a.nfree++
}

// recycle zeroes the slots the arena handed out and returns its chunks
// to the pool, leaving the arena empty: any later lookup panics.
func (a *reqArena) recycle() {
	for i, c := range a.chunks {
		clear(c[:min(int(a.n)-i<<reqChunkBits, len(c))])
		reqChunks.Put(c)
	}
	a.chunks, a.free = nil, nil
}

// inUse counts slots handed out and not yet released.
func (a *reqArena) inUse() int { return int(a.n) - a.nfree }

// at resolves an arena index (an event payload word) to its Request.
func (a *reqArena) at(idx uint32) *Request {
	return &a.chunks[idx>>reqChunkBits][idx&(1<<reqChunkBits-1)]
}

// bankFIFO is one bank's intrusive request list, linked through the
// Request next/prev fields and kept in (arrive, submission) order: new
// requests arrive at monotone ticks and append at the tail, and the only
// front insertions are cancelled/paused writes, which by construction
// arrived no later than anything still queued for the bank. The head is
// therefore always the oldest request — the O(1) answer to what used to
// be a scan.
type bankFIFO struct {
	head, tail *Request
	n          int
}

// reqQueue is one controller queue (read, write or eager) indexed by
// bank. The aggregate size drives the full/drain thresholds; per-bank
// lists drive issue selection.
type reqQueue struct {
	size  int
	banks []bankFIFO
}

func (q *reqQueue) init(banks int) { q.banks = make([]bankFIFO, banks) }

// pushBack appends r to its bank's list (new arrivals).
func (q *reqQueue) pushBack(r *Request) {
	f := &q.banks[r.Bank]
	r.next, r.prev = nil, f.tail
	if f.tail != nil {
		f.tail.next = r
	} else {
		f.head = r
	}
	f.tail = r
	f.n++
	q.size++
}

// pushFront re-queues a preempted request at its bank's head.
func (q *reqQueue) pushFront(r *Request) {
	f := &q.banks[r.Bank]
	r.prev, r.next = nil, f.head
	if f.head != nil {
		f.head.prev = r
	} else {
		f.tail = r
	}
	f.head = r
	f.n++
	q.size++
}

// remove unlinks r from its bank's list.
func (q *reqQueue) remove(r *Request) {
	f := &q.banks[r.Bank]
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		f.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		f.tail = r.prev
	}
	r.next, r.prev = nil, nil
	f.n--
	q.size--
}

// oldest returns the oldest queued request for a bank, or nil. O(1).
func (q *reqQueue) oldest(bank int) *Request {
	return q.banks[bank].head
}

// count returns the number of queued requests for a bank. O(1).
func (q *reqQueue) count(bank int) int { return q.banks[bank].n }

// find returns the queued request holding line, or nil. The walk spans
// only the line's bank list (a handful of entries) instead of the whole
// queue.
func (q *reqQueue) find(bank int, line uint64) *Request {
	for r := q.banks[bank].head; r != nil; r = r.next {
		if r.Line == line {
			return r
		}
	}
	return nil
}

// wake schedules (or dedups) a scheduling attempt for a bank at tick t.
// The bank's precomputed next-wakeup tick makes redundant scheduler
// events disappear: several same-tick submissions to one bank used to
// enqueue one no-op trySchedule event each; now the first wins and the
// rest cost a comparison. An idle bank has no pending wake event at all.
func (c *Controller) wake(bank int, t sim.Tick) {
	b := &c.banks[bank]
	if b.wakeSet && b.wakeAt == t {
		return
	}
	b.wakeSet, b.wakeAt = true, t
	c.k.AtEvent(t, c, evWord(opSched, bank, 0), 0)
}
