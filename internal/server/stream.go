package server

import (
	"encoding/json"
	"fmt"
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
	// EventTruncated marks the point where the bounded per-job buffer
	// started dropping epoch events; Dropped counts the loss so far. The
	// final result still carries every sample.
	EventTruncated = "truncated"
	// EventDone and EventFailed terminate every stream exactly once.
	EventDone   = "done"
	EventFailed = "failed"
)

// StreamEvent is one event on the GET /v1/jobs/{id}/events feed.
type StreamEvent struct {
	// Seq is the event's zero-based index in the job's event log (also
	// the SSE id), identical for every subscriber of the job.
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
	// Dropped counts epoch events lost to the buffer bound (truncated
	// events only).
	Dropped uint64 `json:"dropped,omitempty"`
	// Error carries the failure message (failed events only).
	Error string `json:"error,omitempty"`
}

// DefaultStreamBuffer bounds each job's event log. 1<<16 events is
// ~40 MB of a pathological job's samples but a normal observed matrix
// stays far below it; past the bound epoch events are dropped (counted
// and marked) while the result keeps the full series.
const DefaultStreamBuffer = 1 << 16

// streamLog is one job's bounded, append-only broadcast log of stream
// events. Every subscriber replays from the start — events are
// immutable once appended, so late subscribers observe exactly the
// sequence early ones did — and waits on a broadcast channel for more.
// A terminal event seals the log; appends after it are ignored.
//
// A done job's log is sealed compact. Its epoch events are the
// result's series, sample for sample (TestStreamMatchesResultSeries),
// so the sealed log drops them and keeps only the cell of each epoch
// event in arrival order. A replay rebuilds every event from the one
// series the job keeps for its cell, with the same Seq, labels and
// truncation marker. A failed job has no series, and its log keeps
// every event.
type streamLog struct {
	mu sync.Mutex
	// wake is closed and replaced on every append, and nil once sealed.
	wake     chan struct{}
	events   []StreamEvent
	bound    int
	dropped  uint64
	terminal bool

	// A compact log's epoch cells, in arrival order, and the result
	// their events are rebuilt from; held is nil while the log keeps
	// its events.
	cells []uint32
	held  *heldResult

	// droppedTotal is the process-wide drop counter
	// (mellowd_stream_events_dropped_total); nil in unit tests.
	droppedTotal *metrics.Counter
}

func newStreamLog(bound int, droppedTotal *metrics.Counter) *streamLog {
	if bound <= 0 {
		bound = DefaultStreamBuffer
	}
	return &streamLog{wake: make(chan struct{}), bound: bound, droppedTotal: droppedTotal}
}

// append adds ev to the log and wakes subscribers. Epoch events beyond
// the bound are dropped (counted; the first drop appends a truncated
// marker so subscribers know the stream is incomplete). Terminal events
// always land and seal the log. Nil-safe: jobs without a stream ignore
// every call.
func (l *streamLog) append(ev StreamEvent) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked(ev)
}

func (l *streamLog) appendLocked(ev StreamEvent) {
	if l.terminal {
		return
	}
	terminal := ev.Type == EventDone || ev.Type == EventFailed
	if !terminal && len(l.events) >= l.bound {
		l.dropped++
		if l.droppedTotal != nil {
			l.droppedTotal.Add(1)
		}
		if l.dropped > 1 {
			// Published events are immutable (subscribers read them
			// lock-free), so the marker is appended once; further drops
			// are only counted.
			return
		}
		ev = StreamEvent{Type: EventTruncated, Cell: -1, Dropped: 1}
	}
	ev.Seq = len(l.events)
	l.events = append(l.events, ev)
	l.terminal = terminal
	close(l.wake)
	l.wake = nil
	if !terminal {
		l.wake = make(chan struct{})
	}
}

// epoch appends one live sample for a cell labelled as rec.
func (l *streamLog) epoch(cell int, rec experiments.SeriesRecord, s engine.EpochSample) {
	if l == nil {
		return
	}
	l.append(StreamEvent{Type: EventEpoch, Cell: cell, Variant: rec.Variant,
		Workload: rec.Workload, Policy: rec.Policy, Sample: &s})
}

// flushSeries appends the samples of a completed cell's series record
// that were not already streamed live: everything from index streamed
// on. A memo hit or joined flight streamed nothing live (streamed 0)
// and flushes the whole memoised series; the executing caller streamed
// everything (streamed == len(series)) and flushes nothing. Either way
// the cell's epoch-event subsequence ends up byte-identical to the
// result series.
func (l *streamLog) flushSeries(cell int, rec experiments.SeriesRecord, streamed int) {
	if l == nil || streamed >= len(rec.Series) {
		return
	}
	for _, s := range rec.Series[streamed:] {
		l.epoch(cell, rec, s)
	}
}

// finish seals the log with the job's terminal event: failed carrying
// errMsg, or done. A done job passes its result and the form the job
// holds it in; when the log's epoch events are exactly the result's
// series, the log seals compact.
func (l *streamLog) finish(errMsg string, res *JobResult, held *heldResult) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if errMsg != "" {
		l.appendLocked(StreamEvent{Type: EventFailed, Cell: -1, Error: errMsg})
		return
	}
	l.appendLocked(StreamEvent{Type: EventDone, Cell: -1})
	if res == nil {
		return
	}
	recs := seriesOf(res)
	next := make([]int, len(recs)) // each cell's next sample
	var cells []uint32
	for _, ev := range l.events {
		if ev.Type != EventEpoch {
			continue
		}
		c := ev.Cell
		if c < 0 || c >= len(recs) || next[c] >= len(recs[c].Series) || ev.Sample == nil || *ev.Sample != recs[c].Series[next[c]] ||
			ev.Variant != recs[c].Variant || ev.Workload != recs[c].Workload || ev.Policy != recs[c].Policy {
			return // not the result's series: keep the events
		}
		next[c]++
		cells = append(cells, uint32(c))
	}
	l.events, l.cells, l.held = nil, cells, held
}

// next returns the events from seq on, whether the log is sealed, and
// the channel to wait on when caught up (nil once sealed).
func (l *streamLog) next(seq int) ([]StreamEvent, bool, <-chan struct{}) {
	l.mu.Lock()
	if l.held != nil {
		l.mu.Unlock()
		// A compact log never changes again, so it is replayed unlocked.
		return l.replay(seq), true, nil
	}
	defer l.mu.Unlock()
	if seq >= len(l.events) {
		return nil, l.terminal, l.wake
	}
	return l.events[seq:len(l.events):len(l.events)], l.terminal, l.wake
}

// replay rebuilds a compact log's events from seq on: each epoch event
// from its cell's series record, then the truncated marker if the
// bound dropped events, then the done event.
func (l *streamLog) replay(seq int) []StreamEvent {
	n := len(l.cells) + 1 // the epochs and the done event
	if l.dropped > 0 {
		n++ // the truncated marker
	}
	if seq >= n {
		return nil
	}
	evs := make([]StreamEvent, 0, n-seq)
	if seq < len(l.cells) {
		recs := seriesOf(l.held.get("", ""))
		next := make([]int, len(recs)) // each cell's next sample
		for i, c := range l.cells {
			k := next[c]
			next[c]++
			if i < seq {
				continue
			}
			r := &recs[c]
			evs = append(evs, StreamEvent{Seq: i, Type: EventEpoch, Cell: int(c),
				Variant: r.Variant, Workload: r.Workload, Policy: r.Policy, Sample: &r.Series[k]})
		}
	}
	i := len(l.cells)
	if l.dropped > 0 {
		if i >= seq {
			evs = append(evs, StreamEvent{Seq: i, Type: EventTruncated, Cell: -1, Dropped: 1})
		}
		i++
	}
	return append(evs, StreamEvent{Seq: i, Type: EventDone, Cell: -1})
}

// streamKeepAlive is the idle period after which the handler emits an
// SSE comment so proxies and clients see a live connection between
// epochs.
const streamKeepAlive = 15 * time.Second

// handleJobEvents serves GET /v1/jobs/{id}/events: the job's event log
// as Server-Sent Events. Every subscriber — attached before, during or
// after the run — replays the log from the start and receives events
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
	seq := 0
	for {
		evs, sealed, wake := js.stream.next(seq)
		for _, ev := range evs {
			if err := writeSSE(w, ev); err != nil {
				return // client gone
			}
		}
		if len(evs) > 0 {
			fl.Flush()
			seq += len(evs)
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
