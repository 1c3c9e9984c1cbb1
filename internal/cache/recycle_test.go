package cache

import (
	"testing"

	"mellow/internal/config"
	"mellow/internal/rng"
)

// recycleCfg is a hierarchy geometry no other test in the package
// builds, so the levels this test releases are the only ones in its
// pools: L1 8 sets×2 ways, L2 16×4, L3 64×8.
func recycleCfg() config.Hierarchy {
	return config.Hierarchy{
		L1:              config.Cache{SizeBytes: 1 << 10, Ways: 2, HitLatency: 2, MSHRs: 8},
		L2:              config.Cache{SizeBytes: 4 << 10, Ways: 4, HitLatency: 12, MSHRs: 12},
		L3:              config.Cache{SizeBytes: 32 << 10, Ways: 8, HitLatency: 35, MSHRs: 32},
		UselessHitRatio: 1.0 / 32.0,
		ProfilePeriod:   1000,
	}
}

// wantFresh fails unless c is in the state of a newly allocated level:
// no line, every clock zero, each set in identity order with all ways
// holes and every fingerprint byte 0, no counts.
func wantFresh(t *testing.T, c *Cache) {
	t.Helper()
	for i, tag := range c.tags {
		if tag != 0 || c.last[i] != 0 {
			t.Fatalf("%v way %d: tag %d last %d, want 0 0", c, i, tag, c.last[i])
		}
	}
	for si, s := range c.sets {
		for p := 0; p < c.ways; p++ {
			if wayAt(s.order, p) != p {
				t.Fatalf("%v set %d: order %x, want the identity", c, si, s.order)
			}
		}
		if s.order>>(4*c.ways) != 0 || s.dirty != 0 || s.eager != 0 || int(s.holes) != c.ways || s.fp != [len(s.fp)]uint64{} {
			t.Fatalf("%v set %d: %+v, want identity order, clean, %d holes", c, si, s, c.ways)
		}
	}
	if c.Hits() != 0 || c.Misses() != 0 || c.touches != 0 {
		t.Fatalf("%v: counters not zero", c)
	}
}

// TestReleasedLevelStartsFresh dirties every level of a hierarchy,
// releases it and wants the next hierarchy of that geometry to start
// exactly as a fresh one, whether or not it got the released arrays.
// Most rounds do get them (the race detector's pool drops some).
func TestReleasedLevelStartsFresh(t *testing.T) {
	cfg := recycleCfg()
	src := rng.New(3)
	const rounds = 8
	reused := 0
	h := NewHierarchy(cfg, rng.New(1))
	for round := 0; round < rounds; round++ {
		for i := 0; i < 5000; i++ {
			h.Access(src.Uintn(1<<16)<<6, src.Bool(0.4))
			if i%500 == 0 {
				h.RotateProfile()
				h.EagerCandidate()
			}
		}
		if h.L3.DirtyLines() == 0 || h.L3.Profiler().Rotations() == 0 {
			t.Fatal("the workload left no dirty LLC line or rotated no profile")
		}
		old := &h.L3.tags[0]
		h.Release()
		h = NewHierarchy(cfg, rng.New(1))
		if &h.L3.tags[0] == old {
			reused++
		}
		for _, c := range []*Cache{h.L1, h.L2, h.L3} {
			wantFresh(t, c)
		}
		if h.Snapshot() != (Stats{}) {
			t.Fatalf("round %d: hierarchy snapshot %+v, want zero", round, h.Snapshot())
		}
		p := h.L3.Profiler()
		if hits, misses := p.Counters(); misses != 0 || p.Rotations() != 0 || p.EagerPos() != cfg.L3.Ways {
			t.Fatalf("round %d: profiler hits %v misses %d rotations %d eager %d, want fresh", round, hits, misses, p.Rotations(), p.EagerPos())
		}
	}
	if reused == 0 {
		t.Errorf("no round of %d reused the released LLC arrays", rounds)
	}
}

// TestReleasedHierarchyPanics: after Release the levels hold no arrays,
// so an access panics instead of reading arrays another hierarchy may
// own, and releasing again panics too. The counters stay readable.
func TestReleasedHierarchyPanics(t *testing.T) {
	h := NewHierarchy(recycleCfg(), rng.New(1))
	h.Access(64, true)
	h.Release()
	if s := h.Snapshot(); s.DemandWrites != 1 || s.L1Misses != 1 {
		t.Errorf("snapshot after release = %+v, want the one write counted", s)
	}
	for name, f := range map[string]func(){
		"Access":   func() { h.Access(64, false) },
		"Contains": func() { h.Contains(1) },
		"Release":  h.Release,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released hierarchy did not panic", name)
				}
			}()
			f()
		}()
	}
}
