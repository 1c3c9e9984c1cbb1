package sim

// AfterEvent schedules an event d ticks from now.
func (k *Kernel) AfterEvent(d Tick, h Handler, a, b uint64) { k.AtEvent(k.now+d, h, a, b) }

// at and after schedule fn at absolute time t and d ticks from now, the
// way the tests spell an Event scheduled through AtEvent.
func (k *Kernel) at(t Tick, fn Event)    { k.AtEvent(t, fn, 0, 0) }
func (k *Kernel) after(d Tick, fn Event) { k.AtEvent(k.now+d, fn, 0, 0) }
