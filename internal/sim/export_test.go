package sim

// AfterEvent schedules a typed event d ticks from now.
func (k *Kernel) AfterEvent(d Tick, h Handler, a, b uint64) { k.AtEvent(k.now+d, h, a, b) }
