package sim

import (
	"reflect"
	"testing"
)

// scheduleMixed arms k with near events, far events beyond the wheel
// window and a self-rescheduling daemon, each event logging its tick and
// id, then advances part-way so every kind is still pending.
func scheduleMixed(k *Kernel, log *[]Tick) {
	h := handlerFunc(func(now Tick, a, _ uint64) { *log = append(*log, now, Tick(a)) })
	for i := uint64(0); i < 400; i++ {
		k.AtEvent(Tick(i*7919%(4*wheelSlots)), h, i, 0)
	}
	k.atDaemonEvent(100, &tickerHandler{k: k, period: 1000}, 0, 0)
	k.AdvanceTo(2 * wheelSlots)
}

// TestReleasedKernelStartsFresh releases kernels with events pending in
// wheel buckets, in the overflow, as a daemon timer and as a probe, and
// wants NewKernel's next kernel to be field for field a fresh kernel,
// with an emptied slab, and to fire the same schedule in the same order,
// whether or not it got the released one. Most rounds do get it (the
// race detector's pool drops some).
func TestReleasedKernelStartsFresh(t *testing.T) {
	var want []Tick
	fresh := &Kernel{}
	scheduleMixed(fresh, &want)
	partial := len(want)
	fresh.Drain()

	var empty Kernel
	empty.init()
	const rounds = 8
	reused := 0
	var released *Kernel
	for round := 0; round < rounds; round++ {
		k := NewKernel()
		if k == released {
			reused++
		}
		if !k.ready {
			k.init()
		}
		for _, e := range k.slab[:cap(k.slab)] {
			if e.h != nil {
				t.Fatalf("round %d: the recycled slab still holds a callback", round)
			}
		}
		got := *k
		if len(got.slab) != 0 || len(got.overflow) != 0 {
			t.Fatalf("round %d: %d slab and %d overflow entries, want none", round, len(got.slab), len(got.overflow))
		}
		got.slab, got.overflow = nil, nil
		if !reflect.DeepEqual(got, empty) {
			t.Fatalf("round %d: the kernel NewKernel returned differs from a fresh one", round)
		}
		var log []Tick
		k.AddProbe(300, func(Tick) {})
		scheduleMixed(k, &log)
		if round == rounds-1 {
			k.Drain()
			partial = len(want)
		} else if k.wheelN == 0 || len(k.overflow) == 0 || k.Pending() == k.PendingWork() {
			t.Fatalf("round %d: releasing with %d wheel, %d overflow and %d daemon events pending; want each",
				round, k.wheelN, len(k.overflow), k.Pending()-k.PendingWork())
		}
		if !equalTicks(log, want[:partial]) {
			t.Fatalf("round %d: recycled kernel fired %v...\nfresh fired %v...", round, head(log), head(want))
		}
		released = k
		k.Release()
	}
	if reused == 0 {
		t.Errorf("no round of %d reused the released kernel", rounds)
	}
}

func equalTicks(a, b []Tick) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func head(s []Tick) []Tick { return s[:min(len(s), 8)] }

// TestReleasedKernelPanics: a released kernel keeps its clock and
// counters readable, but scheduling near or far panics, and so does a
// second release.
func TestReleasedKernelPanics(t *testing.T) {
	var k Kernel
	k.at(5, func(Tick) {})
	k.AdvanceTo(10)
	k.Release()
	if k.Now() != 10 || k.Fired() != 1 {
		t.Errorf("after release: now %d fired %d, want 10 1", k.Now(), k.Fired())
	}
	for name, f := range map[string]func(){
		"At":      func() { k.at(20, func(Tick) {}) },
		"far At":  func() { k.at(10+2*wheelSlots, func(Tick) {}) },
		"Release": k.Release,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released kernel did not panic", name)
				}
			}()
			f()
		}()
	}
}
