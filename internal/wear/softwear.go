package wear

import (
	"fmt"
	"math/bits"
)

// softwearEfficiency is the within-bank leveling efficiency the lifetime
// model assumes for SoftWear-style leveling: page-granularity remapping
// levels wear across frames but cannot touch the imbalance between
// blocks inside one page, so it trails the fine-grained schemes.
const softwearEfficiency = 0.85

// SoftWear is a SoftWear-style software-only page-granularity
// wear-leveling remapper for one bank (Hakert et al., arXiv 2004.03244:
// "SoftWear: Software-Only In-Memory Wear-Leveling for Non-Volatile
// Main Memory").
//
// The scheme needs no custom hardware: the OS keeps per-page write
// counters and periodically migrates hot pages away from worn physical
// frames by rewriting page contents and updating the page table. The
// model divides the bank into pages of pageBlocks 64-byte blocks and,
// every epochWrites demand writes, swaps the epoch's hottest logical
// page with the logical page occupying the least-written physical
// frame. One remap therefore copies two whole pages — 2·pageBlocks copy
// writes — which is far costlier per action than Start-Gap's single
// block copy, but actions are correspondingly rare; the controller
// charges the whole copy as bank-busy time, which is how the software
// scheme's page-migration pauses reach IPC.
//
// The page tables are allocated lazily in fixed-size chunks, so a bank
// costs memory in proportion to the pages and frames a run touches, not
// to its capacity: a nil chunk reads as identity mapping and zero
// writes. An epoch closes in time proportional to the pages written in
// it, and the coldest frame is found by a forward-only cursor while any
// frame is still unwritten.
type SoftWear struct {
	n         int64
	pageShift uint
	pageMask  int64
	pages     int64
	// fwd and inv hold the page permutation and its inverse as offsets
	// from identity (phys-page, page-phys), so a zero entry is unmapped.
	fwd, inv    pageTable[int32]
	epochHot    pageTable[uint32] // per-logical-page writes in the current epoch
	frameWrites pageTable[uint64] // lifetime writes absorbed per physical frame
	touched     []int64           // pages with nonzero epochHot, in first-write order
	// unwritten is the lowest frame that may still have zero writes:
	// every frame below it has been written. Write counts never fall,
	// so it only moves forward.
	unwritten   int64
	epochWrites int
	since       int
	moves       uint64
}

// pageChunkBits sizes the lazily allocated page-table chunks: 1024
// pages (4 MB of bank at the default 4 KB page) per chunk.
const (
	pageChunkBits = 10
	pageChunk     = 1 << pageChunkBits
)

// pageTable is a sparse per-page array: fixed-size chunks allocated on
// first store, a nil chunk reading as all zeros.
type pageTable[T int32 | uint32 | uint64] struct {
	chunks []*[pageChunk]T
}

func newPageTable[T int32 | uint32 | uint64](pages int64) pageTable[T] {
	return pageTable[T]{chunks: make([]*[pageChunk]T, (pages+pageChunk-1)>>pageChunkBits)}
}

// get returns entry i, zero when its chunk was never stored to.
func (t *pageTable[T]) get(i int64) T {
	if c := t.chunks[i>>pageChunkBits]; c != nil {
		return c[i&(pageChunk-1)]
	}
	return 0
}

// ref returns a pointer to entry i, allocating its chunk on first use.
func (t *pageTable[T]) ref(i int64) *T {
	c := t.chunks[i>>pageChunkBits]
	if c == nil {
		c = new([pageChunk]T)
		t.chunks[i>>pageChunkBits] = c
	}
	return &c[i&(pageChunk-1)]
}

// NewSoftWear creates a remapper for a bank of n blocks with pages of
// pageBlocks blocks (a power of two dividing n), evaluating a remap
// every epochWrites writes.
func NewSoftWear(n int64, pageBlocks, epochWrites int) (*SoftWear, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wear: softwear needs positive block count, got %d", n)
	}
	if pageBlocks <= 0 || bits.OnesCount64(uint64(pageBlocks)) != 1 {
		return nil, fmt.Errorf("wear: softwear page size %d blocks is not a positive power of two", pageBlocks)
	}
	if n%int64(pageBlocks) != 0 {
		return nil, fmt.Errorf("wear: softwear page size %d does not divide %d blocks", pageBlocks, n)
	}
	if epochWrites <= 0 {
		return nil, fmt.Errorf("wear: softwear needs a positive epoch, got %d", epochWrites)
	}
	pages := n / int64(pageBlocks)
	return &SoftWear{
		n:           n,
		pageShift:   uint(bits.TrailingZeros64(uint64(pageBlocks))),
		pageMask:    int64(pageBlocks) - 1,
		pages:       pages,
		fwd:         newPageTable[int32](pages),
		inv:         newPageTable[int32](pages),
		epochHot:    newPageTable[uint32](pages),
		frameWrites: newPageTable[uint64](pages),
		epochWrites: epochWrites,
	}, nil
}

// Name returns the backend identifier.
func (s *SoftWear) Name() string { return BackendSoftWear }

// frameOf returns the physical frame holding a logical page.
func (s *SoftWear) frameOf(page int64) int64 { return page + int64(s.fwd.get(page)) }

// pageAt returns the logical page occupying a physical frame.
func (s *SoftWear) pageAt(frame int64) int64 { return frame + int64(s.inv.get(frame)) }

// place maps a logical page to a physical frame in both tables.
func (s *SoftWear) place(page, frame int64) {
	*s.fwd.ref(page) = int32(frame - page)
	*s.inv.ref(frame) = int32(page - frame)
}

// Map translates a logical block through the page table: the page index
// remaps, the offset within the page is untouched.
func (s *SoftWear) Map(logical int64) int64 {
	if logical < 0 || logical >= s.n {
		panic(fmt.Sprintf("wear: logical block %d out of [0,%d)", logical, s.n))
	}
	return s.frameOf(logical>>s.pageShift)<<s.pageShift | logical&s.pageMask
}

// Observe counts the write against its logical page and physical frame;
// at each epoch boundary the hottest page of the epoch migrates to the
// least-written frame (a page swap), unless it already sits there.
func (s *SoftWear) Observe(logical int64) RemapCost {
	page := logical >> s.pageShift
	h := s.epochHot.ref(page)
	if *h == 0 {
		s.touched = append(s.touched, page)
	}
	*h++
	*s.frameWrites.ref(s.frameOf(page))++
	s.since++
	if s.since < s.epochWrites {
		return RemapCost{}
	}
	s.since = 0
	hot := s.closeEpoch()
	cold := s.coldestFrame()
	oldFrame := s.frameOf(hot)
	if oldFrame == cold {
		return RemapCost{} // the hot page already owns the coldest frame
	}
	s.moves++
	// Swap the hot page with whichever logical page holds the cold frame.
	other := s.pageAt(cold)
	s.place(hot, cold)
	s.place(other, oldFrame)
	// Both pages rewrite in full at their new frames.
	return RemapCost{CopyWrites: 2 * int(s.pageMask+1)}
}

// closeEpoch returns the epoch's hottest logical page (ties break toward
// the lowest index, keeping runs deterministic) and clears the epoch's
// counters, visiting only the pages written in it.
func (s *SoftWear) closeEpoch() int64 {
	hot, best := s.pages, uint32(0)
	for _, p := range s.touched {
		h := s.epochHot.ref(p)
		if *h > best || *h == best && p < hot {
			hot, best = p, *h
		}
		*h = 0
	}
	s.touched = s.touched[:0]
	return hot
}

// coldestFrame returns the least-written physical frame, the lowest
// index among equals. While some frame is unwritten that is the lowest
// unwritten one, which the cursor finds without revisiting frames; once
// every frame has been written it falls back to a full scan.
func (s *SoftWear) coldestFrame() int64 {
	for s.unwritten < s.pages && s.frameWrites.get(s.unwritten) > 0 {
		s.unwritten++
	}
	if s.unwritten < s.pages {
		return s.unwritten
	}
	cold, least := int64(0), s.frameWrites.get(0)
	for f := int64(1); f < s.pages; f++ {
		if w := s.frameWrites.get(f); w < least {
			cold, least = f, w
		}
	}
	return cold
}

// Blocks returns the logical block count.
func (s *SoftWear) Blocks() int64 { return s.n }

// PhysBlocks returns the physical block count; pages swap in place, so
// there is no spare.
func (s *SoftWear) PhysBlocks() int64 { return s.n }

// Moves returns the number of page swaps performed.
func (s *SoftWear) Moves() uint64 { return s.moves }

// Efficiency returns the assumed fraction of ideal leveling.
func (s *SoftWear) Efficiency() float64 { return softwearEfficiency }
