package cpu

// Run executes n instructions (dispatch-counted) and returns.
func (c *Core) Run(n uint64) {
	for end := c.instrs + n; c.instrs < end; {
		c.Step()
	}
}
