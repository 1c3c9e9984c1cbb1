package cpu

import "mellow/internal/mem"

// prefetcher is a confirmed next-line stream prefetcher attached to the
// LLC: when a demand miss for line X follows a recent miss for X-1 or
// X-2, the lines X+1..X+degree are fetched into the LLC. It gives the
// streaming workloads the memory-level parallelism a gem5-class setup
// has, so the bandwidth pressure that makes slow writes expensive
// (Figure 2: stream, lbm) is reproduced. Prefetches share the demand
// MSHRs — the issue path stops when the miss-status file is full — and
// install on completion.
type prefetcher struct {
	recent    [64]uint64 // ring of recent demand-miss line addresses
	recentIdx int
	// seen counts the ring's entries by their low line bits. A zero
	// count proves that no entry has those bits, so most misses outside
	// a stream skip the ring walk.
	seen     [seenSize]uint8
	inflight []pfEntry               // FIFO, drained in order (determinism)
	index    map[uint64]*mem.Request // dedup / hit-under-prefetch lookup
	degree   int
}

type pfEntry struct {
	line uint64
	req  *mem.Request
}

const seenSize = 1024 // a power of two

func newPrefetcher(degree int) *prefetcher {
	p := &prefetcher{index: make(map[uint64]*mem.Request), degree: degree}
	p.seen[0] = uint8(len(p.recent)) // the ring starts out holding line 0
	return p
}

// observe records a demand miss and reports whether it confirms a
// sequential stream: whether line-1 or line-2 is among the last
// len(recent) misses, counting the ring's initial zero lines.
func (p *prefetcher) observe(line uint64) bool {
	confirmed := p.recentHas(line-1) || p.recentHas(line-2)
	p.seen[p.recent[p.recentIdx]&(seenSize-1)]--
	p.seen[line&(seenSize-1)]++
	p.recent[p.recentIdx] = line
	p.recentIdx = (p.recentIdx + 1) % len(p.recent)
	return confirmed
}

// recentHas reports whether line is in the ring, walking it newest
// first, since a stream's previous miss is usually the last one.
func (p *prefetcher) recentHas(line uint64) bool {
	if p.seen[line&(seenSize-1)] == 0 {
		return false
	}
	for i := 1; i <= len(p.recent); i++ {
		if p.recent[(p.recentIdx-i)&(len(p.recent)-1)] == line {
			return true
		}
	}
	return false
}

// issuePrefetches launches next-line fetches for a confirmed stream.
func (c *Core) issuePrefetches(line uint64) {
	for d := uint64(1); d <= uint64(c.pf.degree); d++ {
		if c.memOutstanding() >= c.mshrLimit {
			return
		}
		target := line + d
		if _, busy := c.pf.index[target]; busy || c.hier.Contains(target) {
			continue
		}
		r := c.ctl.SubmitRead(target, c.now())
		c.pf.index[target] = r
		c.pf.inflight = append(c.pf.inflight, pfEntry{line: target, req: r})
		if !r.Done() {
			c.pfPending++
		}
	}
}

// drainPrefetches installs completed prefetches into the LLC in FIFO
// order, pushing any displaced dirty victims to the write queue. It
// returns at once if no read has completed since the last pass began;
// reads that complete during a pass, while a victim waits for write
// queue space, move ReadsDone, so the next pass looks again.
func (c *Core) drainPrefetches() {
	d := c.ctl.ReadsDone()
	if d == c.drainAt {
		return
	}
	c.drainAt = d
	keep := c.pf.inflight[:0]
	for _, e := range c.pf.inflight {
		if !e.req.Done() {
			keep = append(keep, e)
			continue
		}
		delete(c.pf.index, e.line)
		c.ctl.Release(e.req)
		for _, wb := range c.hier.InstallPrefetch(e.line) {
			c.ctl.SubmitWrite(wb, c.now())
		}
	}
	c.pf.inflight = keep
}

// prefetchRequest returns the in-flight prefetch covering a demand miss,
// if any (a hit-under-prefetch attaches the load to it instead of
// issuing a duplicate read).
func (c *Core) prefetchRequest(line uint64) *mem.Request {
	return c.pf.index[line]
}

// prefetchOutstanding counts prefetches holding MSHRs.
func (c *Core) prefetchOutstanding() int {
	n := 0
	for _, e := range c.pf.inflight {
		if !e.req.Done() {
			n++
		}
	}
	return n
}
