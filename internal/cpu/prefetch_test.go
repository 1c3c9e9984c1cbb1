package cpu

import (
	"fmt"
	"testing"

	"mellow/internal/rng"
)

// ringModel is the reference stream confirmation: walk every entry of a
// ring of the last 64 demand-miss lines, which starts out all zero.
type ringModel struct {
	recent [64]uint64
	idx    int
}

func (m *ringModel) observe(line uint64) bool {
	confirmed := false
	for _, r := range m.recent {
		if r == line-1 || r == line-2 {
			confirmed = true
			break
		}
	}
	m.recent[m.idx] = line
	m.idx = (m.idx + 1) % len(m.recent)
	return confirmed
}

// TestObserveMatchesRingModel feeds the prefetcher and the reference
// ring the same miss sequences from the zero state and requires the
// same answer on every call. The sequences cover random lines in a
// small and in the full address range, strided runs in both directions
// (strides that alias in the counted filter among them), interleaved
// streams, and lines around 0 and 2^64, where the ring's zero entries
// and the wrap of line-1 and line-2 decide the answer.
func TestObserveMatchesRingModel(t *testing.T) {
	type sequence struct {
		name string
		next func(i int) uint64
	}
	src := rng.New(7)
	var seqs []sequence
	for _, n := range []uint64{16, 256, 4096, 1 << 20} {
		seqs = append(seqs, sequence{fmt.Sprintf("random/%d", n), func(int) uint64 { return src.Uintn(n) }})
	}
	seqs = append(seqs, sequence{"random/full", func(int) uint64 { return src.Uint64() }})
	for _, stride := range []int64{1, 2, 3, -1, -2, 63, 64, seenSize, seenSize + 1, -seenSize} {
		base := src.Uint64()
		seqs = append(seqs, sequence{fmt.Sprintf("stride/%d", stride), func(i int) uint64 {
			return base + uint64(int64(i)*stride)
		}})
	}
	seqs = append(seqs,
		sequence{"from-zero", func(i int) uint64 { return uint64(i % 5) }},
		sequence{"wrap", func(i int) uint64 { return uint64(i%7) - 3 }},
		sequence{"mixed", func(i int) uint64 {
			switch src.Uintn(4) {
			case 0:
				return uint64(i) // a stream
			case 1:
				return 1<<40 + uint64(i/2) // a slower stream
			case 2:
				return src.Uintn(3) // lines the zero start confirms
			default:
				return src.Uintn(1 << 16)
			}
		}},
	)
	for _, s := range seqs {
		t.Run(s.name, func(t *testing.T) {
			p := newPrefetcher(4)
			var m ringModel
			confirmed := 0
			for i := 0; i < 5000; i++ {
				line := s.next(i)
				got, want := p.observe(line), m.observe(line)
				if got != want {
					t.Fatalf("call %d, line %#x: observe = %v, the ring says %v", i, line, got, want)
				}
				if got {
					confirmed++
				}
			}
			t.Logf("%d of 5000 misses confirmed a stream", confirmed)
		})
	}
}
