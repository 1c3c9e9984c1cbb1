package mem

// bankIdle reports whether every bank is idle (no in-flight operation).
func (c *Controller) bankIdle() bool {
	for b := range c.banks {
		if c.banks[b].cur != nil {
			return false
		}
	}
	return true
}

// Drain runs the memory system until every queued request has completed
// and every bank is idle. Housekeeping timers (Wear Quota periods, the
// eager pump) are kernel daemon events, so they never keep Drain alive —
// this terminates for every policy, including +WQ and Eager.
func (c *Controller) Drain() {
	c.k.AdvanceUntil(func() bool {
		return c.readQ.size == 0 && c.writeQ.size == 0 && c.eagerQ.size == 0 && c.bankIdle()
	})
}

// Attempts returns how many times the request started on a bank.
func (r *Request) Attempts() int { return r.attempts }
