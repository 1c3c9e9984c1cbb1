package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"mellow/internal/engine"
	"mellow/internal/experiments"
	"mellow/internal/metrics"
)

// Stream event types, as carried on the SSE `event:` line and in the
// payload's "type" field.
const (
	// EventEpoch carries one EpochSample of one matrix cell. The
	// subsequence of epoch events for a given cell is byte-for-byte the
	// series the finished result embeds for that cell — the streaming
	// face of the determinism contract.
	EventEpoch = "epoch"
	// EventTruncated marks, once, the point where the job's bounded
	// epoch log started dropping epoch events; its Dropped is 1, the
	// first loss (mellowd_stream_events_dropped_total counts them all).
	// The final result still carries every sample.
	EventTruncated = "truncated"
	// EventDone and EventFailed terminate every stream exactly once.
	EventDone   = "done"
	EventFailed = "failed"
)

// StreamEvent is one event on the GET /v1/jobs/{id}/events feed.
type StreamEvent struct {
	// Seq is the event's zero-based index in the job's event sequence
	// (also the SSE id), identical for every subscriber of the job.
	Seq int `json:"seq"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Cell is the index of the matrix cell the sample belongs to, in the
	// job's batch order — for a sim or compare job the index into the
	// result's Results and Series slices. It is -1 on non-epoch events.
	Cell int `json:"cell"`
	// Variant, Workload and Policy label the cell as its series record
	// does; Variant names an experiment's config variant.
	Variant  string `json:"variant,omitempty"`
	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`
	// Sample is the epoch payload (epoch events only).
	Sample *engine.EpochSample `json:"sample,omitempty"`
	// Dropped is 1 on the truncated event, the first epoch event lost
	// to the bound, and absent on every other.
	Dropped uint64 `json:"dropped,omitempty"`
	// Error carries the failure message (failed events only).
	Error string `json:"error,omitempty"`
}

// DefaultStreamBuffer bounds each job's epoch log. 1<<16 epoch events
// is ~13 MB of a pathological job's samples but a normal observed
// matrix stays far below it; past the bound epoch events are dropped
// (counted and marked) while the result keeps the full series.
const DefaultStreamBuffer = 1 << 16

// epochLog is one job's per-epoch view of its run: the job's progress
// for the status API and the bounded event log behind
// GET /v1/jobs/{id}/events. Per cell it keeps the labels, the samples
// logged so far and the completion fraction; per job, the cell of each
// epoch event in arrival order, the drop count past the bound and,
// once sealed, the terminal event. Events are not stored: read
// rebuilds them from the cells' samples, so a subscriber attached
// before, during or after the run observes the same sequence.
//
// A done job's samples are its result's series, sample for sample
// (TestStreamMatchesResultSeries), so sealing a done log drops the
// cells and reads every sample from the held result instead. A failed
// job has no result, and its log keeps its samples.
type epochLog struct {
	mu sync.Mutex
	// wake is closed and replaced on every event, and nil once the log
	// is sealed.
	wake chan struct{}
	// recs holds each cell's labels and, in Series, its logged samples;
	// cells its received-sample count and completion.
	recs  []experiments.SeriesRecord
	cells []logCell
	// order is the cell of each logged epoch event.
	order   []uint32
	bound   int
	dropped uint64
	// errMsg is a failed job's error, carried by its terminal event.
	errMsg string
	// held is a sealed done job's result, which its samples are read
	// from.
	held *heldResult
	// fresh is the freshest sample any cell closed: the greatest end
	// tick, since parallel cells publish in any order.
	fresh *engine.EpochSample
	// maxSeen is the published completion, never decreasing.
	maxSeen float64

	// droppedTotal is the process-wide drop counter
	// (mellowd_stream_events_dropped_total); nil in unit tests.
	droppedTotal *metrics.Counter
}

// logCell is one cell's progress: the samples it delivered, logged or
// dropped, and its completion fraction — its last sample's progress
// while it runs, 1 once it retired (failed and cancelled cells too, so
// a failed job's fraction accounts for all the work it tried).
type logCell struct {
	got  int
	frac float64
}

func newEpochLog(bound int, droppedTotal *metrics.Counter) *epochLog {
	if bound <= 0 {
		bound = DefaultStreamBuffer
	}
	return &epochLog{wake: make(chan struct{}), bound: bound, droppedTotal: droppedTotal}
}

// plan sizes the log to the job's cells, labelled as recs, none of
// them started.
func (l *epochLog) plan(recs []experiments.SeriesRecord) {
	l.mu.Lock()
	l.recs, l.cells = recs, make([]logCell, len(recs))
	l.mu.Unlock()
}

// epoch logs sample s, which cell i's running simulation just closed.
func (l *epochLog) epoch(i int, s engine.EpochSample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake == nil {
		return
	}
	l.cells[i].frac = max(l.cells[i].frac, s.Progress)
	l.offerLocked(s)
	if l.logLocked(i, s) {
		l.wakeLocked()
	}
}

// done retires cell i and logs the samples of its series it did not
// deliver live: all of them for a memo hit or a joined run, which
// stream nothing live, none for the cell that ran the simulation
// itself. Either way the cell's samples end up the series the result
// embeds. A failed or cancelled cell passes no series.
func (l *epochLog) done(i int, series []engine.EpochSample) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake == nil {
		return
	}
	if len(series) > 0 {
		l.offerLocked(series[len(series)-1])
	}
	c := &l.cells[i]
	c.frac = 1
	woke := false
	for _, s := range series[min(c.got, len(series)):] {
		woke = l.logLocked(i, s) || woke
	}
	if woke {
		l.wakeLocked()
	}
}

// logLocked appends cell i's next sample s and reports whether it
// added an event. Past the bound the sample is dropped and counted;
// the first drop adds the truncated marker.
func (l *epochLog) logLocked(i int, s engine.EpochSample) bool {
	l.cells[i].got++
	if len(l.order) < l.bound {
		l.recs[i].Series = append(l.recs[i].Series, s)
		l.order = append(l.order, uint32(i))
		return true
	}
	l.dropped++
	if l.droppedTotal != nil {
		l.droppedTotal.Add(1)
	}
	return l.dropped == 1
}

// offerLocked keeps s if it is the freshest sample so far. The one
// copy is overwritten in place; sample hands out copies of it.
func (l *epochLog) offerLocked(s engine.EpochSample) {
	if l.fresh == nil {
		l.fresh = new(engine.EpochSample)
	} else if s.End <= l.fresh.End {
		return
	}
	*l.fresh = s
}

func (l *epochLog) wakeLocked() {
	close(l.wake)
	l.wake = make(chan struct{})
}

// seal ends the log with the job's terminal event: failed carrying
// errMsg, or done. A done log reads its samples from held, the result
// the job holds, in place of its own; a failed one ignores held.
// Epochs and retirements after the seal are ignored.
func (l *epochLog) seal(errMsg string, held *heldResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake == nil {
		return
	}
	l.errMsg = errMsg
	if errMsg == "" {
		l.maxSeen = 1
		if held != nil {
			l.held, l.recs, l.cells = held, nil, nil
		}
	}
	close(l.wake)
	l.wake = nil
}

// clamp publishes f through the monotone max filter and returns the
// published (never-decreasing) value in [0, 1].
func (l *epochLog) clamp(f float64) float64 {
	if f < 0 || math.IsNaN(f) {
		f = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.maxSeen = max(l.maxSeen, min(f, 1))
	return l.maxSeen
}

// fraction returns the job's completion in [0, 1], monotone across
// calls: the mean of its cells' fractions, and 1 once done.
func (l *epochLog) fraction() float64 {
	l.mu.Lock()
	var f float64
	for _, c := range l.cells {
		f += c.frac
	}
	if n := len(l.cells); n > 0 {
		f /= float64(n)
	}
	l.mu.Unlock()
	return l.clamp(f)
}

// sample returns a copy of the freshest epoch sample, or nil before any
// cell closed one.
func (l *epochLog) sample() *engine.EpochSample {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fresh == nil {
		return nil
	}
	s := *l.fresh
	return &s
}

// cursor is a subscriber's place in a log: the Seq of the next event
// it reads and, per cell, the index of that cell's next sample.
type cursor struct {
	seq  int
	next []int
}

// read returns the events from c on and moves c past them, whether the
// log is sealed, and the channel to wait on when caught up (nil once
// sealed).
func (l *epochLog) read(c *cursor) ([]StreamEvent, bool, <-chan struct{}) {
	l.mu.Lock()
	held := l.held
	if held == nil {
		defer l.mu.Unlock()
		return l.events(c, l.recs), l.wake == nil, l.wake
	}
	l.mu.Unlock()
	// A sealed done log never changes again, so it is read unlocked,
	// and the result unpacked only while an epoch event is owed.
	var recs []experiments.SeriesRecord
	if c.seq < len(l.order) {
		recs = seriesOf(held.get("", ""))
	}
	return l.events(c, recs), true, nil
}

// events rebuilds the log's events from c on, each epoch event from
// its cell's next sample in recs, then the truncated marker if the
// bound dropped events, then the terminal event once sealed.
func (l *epochLog) events(c *cursor, recs []experiments.SeriesRecord) []StreamEvent {
	n := len(l.order)
	if l.dropped > 0 {
		n++ // the truncated marker
	}
	if l.wake == nil {
		n++ // the terminal event
	}
	if c.seq >= n {
		return nil
	}
	if k := len(recs) - len(c.next); k > 0 {
		c.next = append(c.next, make([]int, k)...)
	}
	evs := make([]StreamEvent, 0, n-c.seq)
	for ; c.seq < len(l.order); c.seq++ {
		i := l.order[c.seq]
		r := &recs[i]
		evs = append(evs, StreamEvent{Seq: c.seq, Type: EventEpoch, Cell: int(i),
			Variant: r.Variant, Workload: r.Workload, Policy: r.Policy, Sample: &r.Series[c.next[i]]})
		c.next[i]++
	}
	if l.dropped > 0 && c.seq == len(l.order) {
		evs = append(evs, StreamEvent{Seq: c.seq, Type: EventTruncated, Cell: -1, Dropped: 1})
		c.seq++
	}
	if c.seq < n {
		ev := StreamEvent{Seq: c.seq, Type: EventDone, Cell: -1}
		if l.errMsg != "" {
			ev.Type, ev.Error = EventFailed, l.errMsg
		}
		evs = append(evs, ev)
		c.seq++
	}
	return evs
}

// streamKeepAlive is the idle period after which the handler emits an
// SSE comment so proxies and clients see a live connection between
// epochs.
const streamKeepAlive = 15 * time.Second

// handleJobEvents serves GET /v1/jobs/{id}/events: the job's epoch log
// as Server-Sent Events. Every subscriber — attached before, during or
// after the run — reads the log from the start and receives events
// until the terminal done/failed event, so a dashboard can render the
// simulation in flight and a late client still sees the full sequence.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	js, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, APIError{Error: "unknown job id"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, APIError{Error: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	s.met.streamSubs.Add(1)
	defer s.met.streamSubs.Add(-1)

	ctx := r.Context()
	keep := time.NewTimer(streamKeepAlive)
	defer keep.Stop()
	var cur cursor
	for {
		evs, sealed, wake := js.epochs.read(&cur)
		for _, ev := range evs {
			if err := writeSSE(w, ev); err != nil {
				return // client gone
			}
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if sealed && len(evs) == 0 {
			return
		}
		if sealed {
			// Drain whatever the seal left (the terminal event may have
			// arrived while we were writing).
			continue
		}
		if !keep.Stop() {
			select {
			case <-keep.C:
			default:
			}
		}
		keep.Reset(streamKeepAlive)
		select {
		case <-wake:
		case <-keep.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-ctx.Done():
			return
		}
	}
}

// writeSSE renders one event in SSE wire format: the log index as the
// event id, the type on the event line, the JSON payload on data.
func writeSSE(w http.ResponseWriter, ev StreamEvent) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, b)
	return err
}
