package wear

import (
	"runtime"
	"testing"

	"mellow/internal/rng"
)

// denseSoftWear is the reference SoftWear: dense page tables for the
// whole bank, a full scan over every page at each epoch close. The
// lazily allocated SoftWear must agree with it write for write.
type denseSoftWear struct {
	pageShift   uint
	pageMask    int64
	pages       int64
	fwd, inv    []int32
	epochHot    []uint32
	frameWrites []uint64
	epochWrites int
	since       int
	moves       uint64
}

func newDenseSoftWear(n int64, pageBlocks, epochWrites int) *denseSoftWear {
	pages := n / int64(pageBlocks)
	s := &denseSoftWear{
		pageMask:    int64(pageBlocks) - 1,
		pages:       pages,
		fwd:         make([]int32, pages),
		inv:         make([]int32, pages),
		epochHot:    make([]uint32, pages),
		frameWrites: make([]uint64, pages),
		epochWrites: epochWrites,
	}
	for pageBlocks > 1<<s.pageShift {
		s.pageShift++
	}
	for p := int64(0); p < pages; p++ {
		s.fwd[p] = int32(p)
		s.inv[p] = int32(p)
	}
	return s
}

func (s *denseSoftWear) Map(logical int64) int64 {
	return int64(s.fwd[logical>>s.pageShift])<<s.pageShift | logical&s.pageMask
}

func (s *denseSoftWear) Observe(logical int64) RemapCost {
	page := logical >> s.pageShift
	s.epochHot[page]++
	s.frameWrites[s.fwd[page]]++
	s.since++
	if s.since < s.epochWrites {
		return RemapCost{}
	}
	s.since = 0
	hot, cold := int64(0), int64(0)
	for p := int64(1); p < s.pages; p++ {
		if s.epochHot[p] > s.epochHot[hot] {
			hot = p
		}
		if s.frameWrites[p] < s.frameWrites[cold] {
			cold = p
		}
	}
	for p := range s.epochHot {
		s.epochHot[p] = 0
	}
	if int64(s.fwd[hot]) == cold {
		return RemapCost{}
	}
	s.moves++
	other := int64(s.inv[cold])
	oldFrame := s.fwd[hot]
	s.fwd[hot], s.fwd[other] = int32(cold), oldFrame
	s.inv[cold], s.inv[oldFrame] = int32(hot), int32(other)
	return RemapCost{CopyWrites: 2 * int(s.pageMask+1)}
}

// TestSoftWearMatchesDenseReference drives the lazy SoftWear and the
// dense reference with the same random write streams and requires the
// same mapping of every block, the same RemapCost and the same move
// count after every write. Banks span one to three table chunks (the
// last one partial), and epochs are tiny, so streams run long past the
// point where every frame has been written and the coldest-frame search
// falls back to its full scan. The three-chunk bank compares every
// block after each epoch close and every 1024th write, and the written block
// after the others, to keep the test fast.
func TestSoftWearMatchesDenseReference(t *testing.T) {
	cases := []struct {
		name              string
		blocks            int64
		pageBlocks, epoch int
		writes            int
	}{
		{"one-chunk", 256, 4, 3, 3000},
		{"single-block-pages", 64, 1, 1, 2000},
		{"three-chunks", 4 * (2*pageChunk + 300), 4, 5, 30000},
	}
	patterns := map[string]func(r *rng.Source, pages int64) int64{
		"uniform": func(r *rng.Source, pages int64) int64 { return int64(r.Uintn(uint64(pages))) },
		"hotspot": func(r *rng.Source, pages int64) int64 {
			if r.Uintn(8) == 0 {
				return int64(r.Uintn(uint64(pages)))
			}
			return int64(r.Uintn(3))
		},
		// The first and last chunk only, leaving middle chunks unallocated
		// until a swap lands there.
		"ends": func(r *rng.Source, pages int64) int64 {
			p := int64(r.Uintn(64))
			if r.Bool(0.5) {
				return pages - 1 - p%pages
			}
			return p % pages
		},
	}
	for _, tc := range cases {
		for name, pick := range patterns {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				lazy, err := NewSoftWear(tc.blocks, tc.pageBlocks, tc.epoch)
				if err != nil {
					t.Fatal(err)
				}
				dense := newDenseSoftWear(tc.blocks, tc.pageBlocks, tc.epoch)
				pages := tc.blocks / int64(tc.pageBlocks)
				r := rng.New(11)
				for i := 0; i < tc.writes; i++ {
					// A page pick plus a random offset inside the page.
					l := pick(r, pages)*int64(tc.pageBlocks) + int64(r.Uintn(uint64(tc.pageBlocks)))
					if got, want := lazy.Observe(l), dense.Observe(l); got != want {
						t.Fatalf("write %d (block %d): cost %+v, dense %+v", i, l, got, want)
					}
					if lazy.Moves() != dense.moves {
						t.Fatalf("write %d: moves %d, dense %d", i, lazy.Moves(), dense.moves)
					}
					from, to := int64(0), tc.blocks
					if tc.blocks > pageChunk && dense.since != 0 && i%pageChunk != 0 {
						from, to = l, l+1
					}
					for b := from; b < to; b++ {
						if got, want := lazy.Map(b), dense.Map(b); got != want {
							t.Fatalf("write %d: Map(%d) = %d, dense %d", i, b, got, want)
						}
					}
				}
				if lazy.unwritten < lazy.pages && name == "uniform" {
					t.Errorf("stream never wrote every frame (cursor at %d of %d): the full-scan fallback went untested", lazy.unwritten, lazy.pages)
				}
				if dense.moves == 0 {
					t.Error("stream triggered no page swaps")
				}
			})
		}
	}
}

// TestNewSoftWearFootprint pins the lazy tables: a default-sized bank
// (8 Mi blocks of 4 KB pages) costs only its chunk directories until it
// is written to. The dense tables cost 2.6 MB.
func TestNewSoftWearFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lv, err := NewSoftWear(8<<20, 64, 4096)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("NewSoftWear allocated %d bytes, want < 64 KB", got)
	}
	runtime.KeepAlive(lv)
}

// TestSoftWearObserveAllocs mirrors BenchmarkLevelerRemap/softwear's
// 0 allocs/op gate: past warm-up, Observe and Map allocate nothing per
// write. Table chunks come into being on first touch, a bounded number
// per bank, and the epoch's touched list reuses its backing array.
func TestSoftWearObserveAllocs(t *testing.T) {
	const blocks = 4 << 20
	lv, err := NewSoftWear(blocks, 64, 4096)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	for i := 0; i < 1<<16; i++ {
		lv.Observe(int64(r.Uintn(blocks)))
	}
	allocs := testing.AllocsPerRun(1<<14, func() {
		l := int64(r.Uintn(blocks))
		lv.Observe(l)
		lv.Map(l)
	})
	if allocs != 0 {
		t.Errorf("Observe+Map allocates %v times per write, want 0", allocs)
	}
}
