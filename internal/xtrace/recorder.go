package xtrace

import "mellow/internal/sim"

// Track identifiers within one simulation's timeline. Banks map to
// BankTrack(b); the low track numbers are reserved for system-level
// tracks so a trace viewer lists them first.
const (
	// TrackPhase carries the engine's warmup/detailed/drain slices.
	TrackPhase int32 = 0
	// TrackEpoch carries one slice per closed epoch-probe interval.
	TrackEpoch int32 = 1
	// TrackController carries controller-global events (drain windows).
	TrackController int32 = 2
	// trackBank0 is the track of bank 0; banks are contiguous from it.
	trackBank0 int32 = 8
)

// BankTrack returns the timeline track of one memory bank.
func BankTrack(bank int) int32 { return trackBank0 + int32(bank) }

// EventKind classifies a timeline event, mirroring the Chrome Trace
// Event phases the exporter emits.
type EventKind uint8

const (
	// KindSlice is a complete event with a duration (ph "X").
	KindSlice EventKind = iota
	// KindInstant is a point event (ph "i").
	KindInstant
	// KindCounter is a sampled counter value (ph "C").
	KindCounter
)

// Event is one timeline entry, timestamped in kernel ticks. Line and
// Aux are optional small arguments (line address; attempt count or
// epoch index) exported into the Chrome event's args.
type Event struct {
	Kind  EventKind
	Track int32
	Name  string
	Cat   string
	Start sim.Tick
	End   sim.Tick // slices only; >= Start
	Value float64  // counters only
	Line  uint64   // line address, or 0
	Aux   uint64   // attempts / epoch index, or 0
}

// DefaultEventCap is the default ring-buffer bound: 64 Ki events per
// simulation, roughly 4 MB of buffered Events. A full-length run
// overflows it by design — the ring keeps the newest events, so the
// exported window covers the end of the run and the drop counter says
// how much history scrolled away.
const DefaultEventCap = 1 << 16

// Recorder is a bounded ring buffer of simulation-timeline events for
// one run. It is single-threaded, like the simulator that feeds it,
// and every method is a no-op on a nil receiver — the disabled state
// costs exactly one nil check at each hook.
//
// Recording only appends to the recorder's own buffer; it never reads
// or mutates simulated state, which is what keeps a traced run
// bit-identical to an untraced one.
type Recorder struct {
	buf       []Event
	head      int // index of the oldest event when full
	dropped   uint64
	finalized bool
}

// NewRecorder starts a timeline recorder with the given event bound
// (<= 0: DefaultEventCap). The recorder counts as active until
// Finalize.
func NewRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = DefaultEventCap
	}
	activeRecorders.Add(1)
	return &Recorder{buf: make([]Event, 0, cap)}
}

// add appends one event, overwriting the oldest past the bound.
func (r *Recorder) add(e Event) {
	if cap(r.buf) == 0 {
		return // finalized; late flush hooks are ignored
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.head] = e
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.dropped++
	droppedEvents.Add(1)
}

// Slice records a complete event spanning [start, end] on a track.
func (r *Recorder) Slice(track int32, name, cat string, start, end sim.Tick, line, aux uint64) {
	if r == nil {
		return
	}
	if end < start {
		end = start
	}
	r.add(Event{Kind: KindSlice, Track: track, Name: name, Cat: cat,
		Start: start, End: end, Line: line, Aux: aux})
}

// Instant records a point event on a track.
func (r *Recorder) Instant(track int32, name, cat string, at sim.Tick, line, aux uint64) {
	if r == nil {
		return
	}
	r.add(Event{Kind: KindInstant, Track: track, Name: name, Cat: cat,
		Start: at, End: at, Line: line, Aux: aux})
}

// Counter records a sampled counter value on a track.
func (r *Recorder) Counter(track int32, name, cat string, at sim.Tick, v float64) {
	if r == nil {
		return
	}
	r.add(Event{Kind: KindCounter, Track: track, Name: name, Cat: cat,
		Start: at, End: at, Value: v})
}

// Dropped returns how many events the ring has discarded so far.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Len returns the number of buffered events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// SimTrace is a finalized simulation timeline, labelled for export.
// Events are in record order (ticks non-decreasing — the simulator
// records as time advances). Entries are immutable once built: the
// memo cache shares them across callers.
type SimTrace struct {
	Workload string
	Policy   string
	Banks    int
	Dropped  uint64
	Events   []Event
}

// Finalize stops the recorder and returns its timeline, oldest event
// first, labelled with the run's identity. The recorder retires from
// the active count; further recording is ignored. Finalize on a nil or
// already-finalized recorder returns nil.
func (r *Recorder) Finalize(workload, policy string, banks int) *SimTrace {
	if r == nil || r.finalized {
		return nil
	}
	r.finalized = true
	activeRecorders.Add(-1)
	events := make([]Event, 0, len(r.buf))
	events = append(events, r.buf[r.head:]...)
	events = append(events, r.buf[:r.head]...)
	r.buf = nil
	return &SimTrace{
		Workload: workload,
		Policy:   policy,
		Banks:    banks,
		Dropped:  r.dropped,
		Events:   events,
	}
}

// Discard stops a recorder whose run failed: it retires from the
// active count and drops its buffer. Safe on nil and after Finalize.
func (r *Recorder) Discard() {
	if r == nil || r.finalized {
		return
	}
	r.finalized = true
	activeRecorders.Add(-1)
	r.buf = nil
}
