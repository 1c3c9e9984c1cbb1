package xtrace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mellow/internal/sim"
)

func TestNilReceiversAreNoOps(t *testing.T) {
	var r *Recorder
	r.Slice(TrackPhase, "x", "c", 0, 10, 0, 0)
	r.Instant(TrackPhase, "x", "c", 0, 0, 0)
	r.Counter(TrackPhase, "x", "c", 0, 1)
	r.Discard()
	if r.Len() != 0 || r.Dropped() != 0 || r.Finalize("w", "p", 1) != nil {
		t.Fatal("nil Recorder not inert")
	}

	var s *SpanRecorder
	s.Span("x", "c", time.Time{}, time.Time{})
	if s.TraceID() != "" || s.Spans() != nil || s.Dropped() != 0 {
		t.Fatal("nil SpanRecorder not inert")
	}
}

func TestRecorderRingKeepsNewest(t *testing.T) {
	base := ActiveCount()
	r := NewRecorder(4)
	if got := ActiveCount(); got != base+1 {
		t.Fatalf("active count = %d, want %d", got, base+1)
	}
	for i := 0; i < 6; i++ {
		r.Slice(TrackController, "e", "c", 0, 0, 0, uint64(i))
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	st := r.Finalize("w", "p", 2)
	if got := ActiveCount(); got != base {
		t.Fatalf("active count after finalize = %d, want %d", got, base)
	}
	if st == nil || st.Workload != "w" || st.Policy != "p" || st.Banks != 2 || st.Dropped != 2 {
		t.Fatalf("bad SimTrace: %+v", st)
	}
	// The ring keeps the newest events, unrolled oldest-first.
	want := []uint64{2, 3, 4, 5}
	if len(st.Events) != len(want) {
		t.Fatalf("events = %d, want %d", len(st.Events), len(want))
	}
	for i, e := range st.Events {
		if e.Aux != want[i] {
			t.Fatalf("event %d aux = %d, want %d", i, e.Aux, want[i])
		}
	}
	// Finalize is terminal: a second call is nil and late hooks are
	// ignored rather than recorded.
	if r.Finalize("w", "p", 2) != nil {
		t.Fatal("double finalize returned a trace")
	}
	r.Slice(TrackController, "late", "c", 0, 0, 0, 0)
	if r.Len() != 0 {
		t.Fatal("finalized recorder accepted an event")
	}
}

func TestRecorderDiscard(t *testing.T) {
	base := ActiveCount()
	r := NewRecorder(0)
	r.Instant(TrackController, "e", "c", 1, 0, 0)
	r.Discard()
	if got := ActiveCount(); got != base {
		t.Fatalf("active count after discard = %d, want %d", got, base)
	}
	if r.Finalize("w", "p", 1) != nil {
		t.Fatal("finalize after discard returned a trace")
	}
	r.Discard() // idempotent
}

func TestSliceClampsReversedBounds(t *testing.T) {
	r := NewRecorder(8)
	defer r.Discard()
	r.Slice(TrackPhase, "e", "c", 10, 5, 0, 0)
	tr := r.Finalize("w", "p", 1)
	if tr.Events[0].End != tr.Events[0].Start {
		t.Fatalf("end %d not clamped to start %d", tr.Events[0].End, tr.Events[0].Start)
	}
}

func TestBankTracksFollowSystemTracks(t *testing.T) {
	for _, b := range []int{0, 1, 15, 63} {
		if got := BankTrack(b) - BankTrack(0); got != int32(b) {
			t.Fatalf("BankTrack(%d) is %d tracks past bank 0's", b, got)
		}
	}
	for _, tr := range []int32{TrackPhase, TrackEpoch, TrackController} {
		if tr >= BankTrack(0) {
			t.Fatalf("system track %d is not below bank 0's track %d", tr, BankTrack(0))
		}
	}
}

func TestSpanRecorder(t *testing.T) {
	r := NewSpanRecorder("")
	if len(r.TraceID()) != 16 {
		t.Fatalf("trace id %q not 16 hex digits", r.TraceID())
	}
	if r2 := NewSpanRecorder("cafe"); r2.TraceID() != "cafe" {
		t.Fatalf("explicit trace id lost: %q", r2.TraceID())
	}
	t0 := time.Unix(0, 0)
	r.Span("a", "job", t0, t0.Add(time.Second), "k", "v")
	r.Span("b", "job", t0.Add(time.Second), t0) // reversed: clamped
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Args[0] != "k" || spans[0].Args[1] != "v" {
		t.Fatalf("args lost: %v", spans[0].Args)
	}
	if !spans[1].End.Equal(spans[1].Start) {
		t.Fatal("reversed span not clamped")
	}
}

func TestSpanRecorderBound(t *testing.T) {
	r := NewSpanRecorder("t")
	t0 := time.Unix(0, 0)
	for i := 0; i < maxSpans+3; i++ {
		r.Span("s", "c", t0, t0)
	}
	if len(r.Spans()) != maxSpans {
		t.Fatalf("spans = %d, want bound %d", len(r.Spans()), maxSpans)
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", r.Dropped())
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context carried a recorder")
	}
	if NewContext(ctx, nil) != ctx {
		t.Fatal("nil recorder changed the context")
	}
	r := NewSpanRecorder("x")
	if FromContext(NewContext(ctx, r)) != r {
		t.Fatal("recorder lost in context round trip")
	}
}

// chromeDoc mirrors the subset of the export the tests assert on.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	OtherData       struct {
		TraceID string `json:"trace_id"`
	} `json:"otherData"`
	TraceEvents []struct {
		Name  string         `json:"name"`
		Ph    string         `json:"ph"`
		Ts    float64        `json:"ts"`
		Dur   *float64       `json:"dur"`
		PID   int            `json:"pid"`
		TID   int            `json:"tid"`
		ID    string         `json:"id"`
		Scope string         `json:"s"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChrome(t *testing.T) {
	rec := NewRecorder(16)
	rec.Slice(BankTrack(0), "fast write", "write", 2000, 4000, 0xbeef, 1)
	rec.Instant(TrackController, "drain start", "drain", 3000, 0, 9)
	rec.Counter(TrackEpoch, "depth", "queue", 4000, 7)
	st := rec.Finalize("gups", "Norm", 2)

	t0 := time.Unix(100, 0)
	sr := NewSpanRecorder("feedface00000000")
	sr.Span("queued", "job", t0, t0.Add(time.Millisecond), "kind", "sim")

	doc := &Doc{TraceID: sr.TraceID(), Origin: t0, Spans: sr.Spans(), Sims: []*SimTrace{st}}
	var buf bytes.Buffer
	if err := doc.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}

	var got chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if got.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", got.DisplayTimeUnit)
	}
	if got.OtherData.TraceID != "feedface00000000" {
		t.Fatalf("trace id = %q", got.OtherData.TraceID)
	}

	var phases = map[string]int{}
	var sliceTs, sliceDur float64
	sawSpanBegin, sawSpanEnd := false, false
	for _, e := range got.TraceEvents {
		phases[e.Ph]++
		switch {
		case e.Ph == "X" && e.Name == "fast write":
			sliceTs = e.Ts
			if e.Dur == nil {
				t.Fatal("slice without dur")
			}
			sliceDur = *e.Dur
			if e.Args["line"] != "0xbeef" {
				t.Fatalf("slice args = %v", e.Args)
			}
		case e.Ph == "i":
			if e.Scope != "t" {
				t.Fatalf("instant scope = %q", e.Scope)
			}
		case e.Ph == "C":
			if e.Args["value"] != 7.0 {
				t.Fatalf("counter args = %v", e.Args)
			}
		case e.Ph == "b" && e.Name == "queued":
			sawSpanBegin = true
			if e.Args["kind"] != "sim" {
				t.Fatalf("span args = %v", e.Args)
			}
		case e.Ph == "e" && e.Name == "queued":
			sawSpanEnd = true
		}
	}
	// 2000 ticks at 0.5 ns = 1 µs.
	if sliceTs != 1 || sliceDur != 1 {
		t.Fatalf("tick conversion: ts = %v, dur = %v, want 1, 1", sliceTs, sliceDur)
	}
	if !sawSpanBegin || !sawSpanEnd {
		t.Fatal("async span pair missing")
	}
	for _, ph := range []string{"M", "X", "i", "C", "b", "e"} {
		if phases[ph] == 0 {
			t.Fatalf("no %q events in export; phases: %v", ph, phases)
		}
	}
	// Track metadata names the sim process and its bank threads.
	out := buf.String()
	for _, want := range []string{"sim gups/Norm", "bank 00", "bank 01", "controller", "mellowd service"} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q", want)
		}
	}
}

func TestWriteChromeEmptyDoc(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Doc{}).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var got chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("empty export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got.TraceEvents) != 0 {
		t.Fatalf("empty doc exported %d events", len(got.TraceEvents))
	}
}

func TestWriteChromeOverflowMarker(t *testing.T) {
	rec := NewRecorder(2)
	for i := 0; i < 5; i++ {
		rec.Instant(BankTrack(0), "e", "c", sim.Tick(i), 0, 0)
	}
	st := rec.Finalize("w", "p", 1)
	var buf bytes.Buffer
	if err := (&Doc{Sims: []*SimTrace{st}}).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ring overflow: 3 events dropped") {
		t.Fatalf("no overflow marker in export:\n%s", buf.String())
	}
}
