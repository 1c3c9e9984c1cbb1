// Package mem is the timing model of the resistive main-memory system —
// the NVMain-equivalent substrate of Table II. It models the
// channel/rank/bank topology, open-page row buffers (with writes
// bypassing them, i.e. write-through arrays), the three request queues
// (read 32 / write 32 / eager 16) with their priorities and the
// write-drain state machine, write cancellation, ReRAM write pulses of
// selectable speed, Start-Gap wear leveling, per-bank wear and Wear
// Quota accounting, and the Table V/VI energy model.
package mem

import (
	"mellow/internal/nvm"
	"mellow/internal/sim"
)

// Kind distinguishes the three request classes of the controller.
type Kind uint8

// Request kinds, in priority order.
const (
	// KindRead is a demand fill (highest priority).
	KindRead Kind = iota
	// KindWrite is an LLC dirty write-back (middle priority, drains).
	KindWrite
	// KindEager is an eager mellow write-back (lowest priority, never
	// drains, slow writes only in the Mellow schemes).
	KindEager
)

func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	default:
		return "eager"
	}
}

// Request is one memory operation in flight through the controller. The
// zero Request is meaningless; the controller creates them.
type Request struct {
	// Kind is the request class.
	Kind Kind
	// Line is the line address (byte address >> 6).
	Line uint64
	// Bank is the target bank index.
	Bank int
	// bufTag identifies the 1 KB row-buffer segment the line lives in
	// (after Start-Gap remapping), for open-page hit detection.
	bufTag uint64
	// arrive orders FCFS service within a queue.
	arrive sim.Tick

	done   bool
	doneAt sim.Tick
	// mode is the write pulse chosen at issue (writes only).
	mode nvm.WriteMode
	// attempts counts issue attempts (1 + cancellations + resumes).
	attempts int
	// remaining is the unfinished pulse time of a paused write; zero
	// means a fresh (or cancelled-and-restarted) write.
	remaining sim.Tick

	// idx is the request's arena slot, used to name it in event payloads.
	idx uint32
	// gen counts issues of the slot across all its occupants; an
	// opComplete event carries it, so a stale event left by a cancelled
	// attempt matches neither a retry nor a later occupant of the slot.
	gen uint32
	// holds counts the submitter's references to a read; the slot is
	// recycled once the read is done and holds drops to zero.
	holds int32
	// next/prev link the request into its bank's queue while it waits.
	next, prev *Request
}

// Done reports completion.
func (r *Request) Done() bool { return r.done }
