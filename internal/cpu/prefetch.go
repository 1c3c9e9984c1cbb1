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
	inflight  []pfEntry               // FIFO, drained in order (determinism)
	index     map[uint64]*mem.Request // dedup / hit-under-prefetch lookup
	degree    int
}

type pfEntry struct {
	line uint64
	req  *mem.Request
}

func newPrefetcher(degree int) *prefetcher {
	return &prefetcher{index: make(map[uint64]*mem.Request), degree: degree}
}

// observe records a demand miss and reports whether it confirms a
// sequential stream.
func (p *prefetcher) observe(line uint64) bool {
	confirmed := false
	for _, r := range p.recent {
		if r == line-1 || r == line-2 {
			confirmed = true
			break
		}
	}
	p.recent[p.recentIdx] = line
	p.recentIdx = (p.recentIdx + 1) % len(p.recent)
	return confirmed
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
	}
}

// drainPrefetches installs completed prefetches into the LLC, pushing
// any displaced dirty victims to the write queue. Entries complete
// roughly in order; a stalled head blocks installation of later lines
// only until the next drain, which is harmless.
func (c *Core) drainPrefetches() {
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
