package joblog

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func tempLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.wal")
}

func admit(id, key string) Record {
	return Record{Type: TypeAdmit, ID: id, Key: key, Job: json.RawMessage(`{"kind":"sim"}`)}
}

// pendingKeys extracts the pending content addresses from a reopened
// log — the canonical "what would replay re-enqueue" view every
// corruption test below asserts on.
func pendingKeys(t *testing.T, path string) []string {
	t.Helper()
	l, err := Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer l.Close()
	var keys []string
	for _, r := range Pending(l.Records()) {
		keys = append(keys, r.Key)
	}
	return keys
}

func TestRoundTrip(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(true, admit("job-1", "aaa"), admit("job-2", "bbb")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(false,
		Record{Type: TypeStart, ID: "job-1", Key: "aaa"},
		Record{Type: TypeFinish, ID: "job-1", Key: "aaa"}); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appended != 4 || st.Pending != 1 || st.TailDropped {
		t.Fatalf("stats after appends: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs := re.Records()
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d, want %d", i, r.Seq, i+1)
		}
	}
	if got := Pending(recs); len(got) != 1 || got[0].Key != "bbb" || got[0].ID != "job-2" {
		t.Fatalf("pending = %+v, want the unfinished job-2", got)
	}
	if got0 := Pending(recs)[0].Job; string(got0) != `{"kind":"sim"}` {
		t.Errorf("admit payload lost: %s", got0)
	}
}

// TestTruncatedTail simulates a crash mid-append: the file ends with a
// torn frame. Replay must recover every whole record, drop the tail,
// and leave the file appendable.
func TestTruncatedTail(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(true, admit("job-1", "aaa"), admit("job-2", "bbb")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Tear the last frame at several cut points: inside the payload,
	// inside the header, and header-only.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 5, 8 + 3} {
		if cut >= len(full) {
			t.Fatalf("test cut %d beyond file size %d", cut, len(full))
		}
		if err := os.WriteFile(path, full[:len(full)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		st := re.Stats()
		if st.Replayed != 1 || !st.TailDropped {
			t.Fatalf("cut %d: stats %+v, want 1 replayed with tail dropped", cut, st)
		}
		if got := Pending(re.Records()); len(got) != 1 || got[0].Key != "aaa" {
			t.Fatalf("cut %d: pending %+v", cut, got)
		}
		// The truncated log must accept appends cleanly.
		if err := re.Append(true, admit("job-9", "ccc")); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		re.Close()
		if keys := pendingKeys(t, path); !reflect.DeepEqual(keys, []string{"aaa", "ccc"}) {
			t.Fatalf("cut %d: pending after reopen = %v", cut, keys)
		}
	}
}

// TestBadCRCMidFile flips a payload byte in an early record: replay
// must stop at the last good entry before the corruption (frame sync is
// gone beyond it) and converge — a second replay sees the same state.
func TestBadCRCMidFile(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(true,
		admit("job-1", "aaa"), admit("job-2", "bbb"), admit("job-3", "ccc")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate record 2's payload and flip one byte in it.
	size1 := binary.LittleEndian.Uint32(raw[0:4])
	rec2 := int64(8 + size1)
	raw[rec2+8+4] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st := re.Stats()
	if st.Replayed != 1 || !st.TailDropped {
		t.Fatalf("stats = %+v, want 1 replayed with tail dropped", st)
	}
	if keys := pendingKeys(t, path); !reflect.DeepEqual(keys, []string{"aaa"}) {
		t.Fatalf("pending after CRC corruption = %v, want [aaa]", keys)
	}
	re.Close()

	// Convergence: replaying the already-truncated file again reaches
	// the identical state with no further tail drops.
	re2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	st2 := re2.Stats()
	if st2.Replayed != 1 || st2.TailDropped {
		t.Fatalf("second replay stats = %+v, want clean 1-record log", st2)
	}
}

// TestDuplicateAdmits: the same content address admitted twice (a
// replayed log appended to by a second lifetime, or an at-least-once
// writer) reduces to one pending job; a finish retires it however many
// admits preceded it.
func TestDuplicateAdmits(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(true,
		admit("job-1", "aaa"), admit("job-7", "aaa"), admit("job-2", "bbb")); err != nil {
		t.Fatal(err)
	}
	if n := l.Stats().Pending; n != 2 {
		t.Fatalf("pending with duplicate admits = %d, want 2", n)
	}
	if err := l.Append(false, Record{Type: TypeFinish, ID: "job-1", Key: "aaa"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if keys := pendingKeys(t, path); !reflect.DeepEqual(keys, []string{"bbb"}) {
		t.Fatalf("pending = %v, want [bbb]", keys)
	}

	// An admit after a finish re-opens the key: a resubmission of
	// completed work whose result cache has since been lost must replay.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(true, admit("job-9", "aaa")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if keys := pendingKeys(t, path); !reflect.DeepEqual(keys, []string{"bbb", "aaa"}) {
		t.Fatalf("pending after re-admit = %v, want [bbb aaa]", keys)
	}
}

// TestReplayThenCrashAgain drives two crash-replay cycles: a log with
// pending work is replayed, the second lifetime appends its own records
// and crashes mid-append, and the third replay must converge to the
// correct pending set.
func TestReplayThenCrashAgain(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Lifetime 1: two jobs admitted, one finishes, crash (no compact).
	if err := l.Append(true, admit("job-1", "aaa"), admit("job-2", "bbb")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(false, Record{Type: TypeFinish, ID: "job-1", Key: "aaa"}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Lifetime 2: replays bbb, starts it, admits ccc, then "crashes"
	// with a torn final frame.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := Pending(l2.Records()); len(got) != 1 || got[0].Key != "bbb" {
		t.Fatalf("lifetime 2 pending = %+v", got)
	}
	if err := l2.Append(false, Record{Type: TypeStart, ID: "job-3", Key: "bbb"}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(true, admit("job-4", "ccc")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Lifetime 3: the torn ccc admit is gone; bbb (started, never
	// finished) is still pending. A fourth replay agrees — the state is
	// a fixed point.
	for i := 0; i < 2; i++ {
		if keys := pendingKeys(t, path); !reflect.DeepEqual(keys, []string{"bbb"}) {
			t.Fatalf("replay %d: pending = %v, want [bbb]", i+3, keys)
		}
	}
}

// TestCompact rewrites the log down to its pending admits; a drained
// log compacts to empty bytes.
func TestCompact(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(true, admit("job-1", "aaa"), admit("job-2", "bbb")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(false, Record{Type: TypeFinish, ID: "job-1", Key: "aaa"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	// Appends after compaction keep working.
	if err := l.Append(false, Record{Type: TypeStart, ID: "job-2", Key: "bbb"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if keys := pendingKeys(t, path); !reflect.DeepEqual(keys, []string{"bbb"}) {
		t.Fatalf("pending after compact = %v, want [bbb]", keys)
	}

	// Finish the survivor and compact again: the log is now empty.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(false, Record{Type: TypeFinish, ID: "job-2", Key: "bbb"}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Compact(); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("drained log is %d bytes after compact, want 0", fi.Size())
	}
}

// TestClosedLogRefusesAppends pins the closed-log error path.
func TestClosedLogRefusesAppends(t *testing.T) {
	path := tempLog(t)
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append(true, admit("job-1", "aaa")); err == nil {
		t.Fatal("append on closed log succeeded")
	}
	if err := l.Compact(); err == nil {
		t.Fatal("compact on closed log succeeded")
	}
}

// FuzzJoblogOpen: Open recovers a clean prefix from arbitrary bytes
// without panicking or hanging, and appends resume from it — after one
// Append and a reopen the log holds exactly the first open's records
// plus the appended one.
func FuzzJoblogOpen(f *testing.F) {
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.wal")
	l, err := Open(seed)
	if err != nil {
		f.Fatal(err)
	}
	if err := l.Append(true, admit("job-1", "aaa"), admit("job-2", "bbb")); err != nil {
		f.Fatal(err)
	}
	if err := l.Append(false, Record{Type: TypeFinish, ID: "job-1", Key: "aaa"},
		Record{Type: TypeFail, ID: "job-2", Key: "bbb", Error: "boom"}); err != nil {
		f.Fatal(err)
	}
	l.Close()
	valid, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	for _, n := range []int{3, 8, 20, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	for _, i := range []int{0, 4, 9, len(valid) / 2, len(valid) - 2} {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x10
		f.Add(flipped)
	}

	next := Record{Type: TypeAdmit, ID: "job-9", Key: "zzz", Job: json.RawMessage(`{"kind":"sim"}`),
		Time: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := tempLog(t)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		first := append([]Record(nil), l.Records()...)
		want := next
		for _, r := range first {
			want.Seq = max(want.Seq, r.Seq)
		}
		want.Seq++
		if err := l.Append(false, next); err != nil {
			t.Fatalf("append: %v", err)
		}
		l.Close()
		re, err := Open(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		if got := re.Records(); !reflect.DeepEqual(got, append(first, want)) {
			t.Fatalf("reopened records\n%+v\nwant the first open's %d records plus\n%+v", got, len(first), want)
		}
		if re.Stats().TailDropped {
			t.Error("reopen dropped a tail after a clean append")
		}
	})
}
