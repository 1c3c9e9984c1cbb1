package stats

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/bits"
)

// NumBuckets is the fixed bucket count shared by every consumer of the
// power-of-two layout (internal/metrics builds its atomic histograms on
// the same geometry).
const NumBuckets = 48

// Histogram accumulates a latency distribution in power-of-two buckets
// (bucket i holds values in [2^i, 2^(i+1))). It answers mean and
// quantile queries cheaply and exactly enough for reporting (quantiles
// are bucket-resolution).
type Histogram struct {
	buckets [NumBuckets]uint64
	count   uint64
	sum     uint64
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

func bucketOf(v uint64) int {
	if v == 0 {
		return 0
	}
	b := bits.Len64(v) - 1
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketIndex maps a value to its power-of-two bucket, the shared
// geometry external accumulators (internal/metrics) must agree on.
func BucketIndex(v uint64) int { return bucketOf(v) }

// FromBuckets assembles a Histogram from raw per-bucket counts (the
// BucketIndex geometry) and a sample sum. The count is derived from the
// buckets, so a distribution assembled from a torn concurrent read
// stays internally consistent: cumulative bucket counts always reach
// the total. Slices shorter than NumBuckets are zero-extended.
func FromBuckets(buckets []uint64, sum uint64) Histogram {
	h := Histogram{sum: sum}
	for i, c := range buckets {
		if i >= NumBuckets {
			break
		}
		h.buckets[i] = c
		h.count += c
	}
	return h
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Sum returns the total of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Bucket is one power-of-two bucket of a Histogram: Count samples with
// values <= Upper (and above the previous bucket's Upper).
type Bucket struct {
	Upper uint64
	Count uint64
}

// Buckets returns the occupied buckets in ascending order — the export
// surface for external encodings (e.g. Prometheus exposition, where
// each bucket becomes an "le" bound after cumulation).
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		out = append(out, Bucket{Upper: 1<<uint(i+1) - 1, Count: c})
	}
	return out
}

// histogramJSON is the wire form: occupied buckets plus totals.
type histogramJSON struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// MarshalJSON encodes the distribution as its occupied buckets with
// totals, so results carrying histograms are machine-readable.
func (h Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Count: h.count, Sum: h.sum, Buckets: h.Buckets()})
}

// UnmarshalJSON rebuilds the distribution from its wire form.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*h = Histogram{count: w.Count, sum: w.Sum}
	for _, bk := range w.Buckets {
		h.buckets[bucketOf(bk.Upper)] += bk.Count
	}
	return nil
}

// MarshalBinary packs the distribution as varints: the count, the sum
// and every one of the NumBuckets bucket counts in order. A short run's
// mostly empty histogram packs into ~60 bytes.
func (h Histogram) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 2*binary.MaxVarintLen64+NumBuckets)
	b = binary.AppendUvarint(b, h.count)
	b = binary.AppendUvarint(b, h.sum)
	for _, c := range h.buckets {
		b = binary.AppendUvarint(b, c)
	}
	return b, nil
}

// UnmarshalBinary rebuilds the distribution from MarshalBinary's bytes.
func (h *Histogram) UnmarshalBinary(b []byte) error {
	var v [2 + NumBuckets]uint64
	for i := range v {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("stats: histogram bytes truncated or overflowing")
		}
		v[i], b = x, b[n:]
	}
	h.count, h.sum = v[0], v[1]
	copy(h.buckets[:], v[2:])
	return nil
}

// Sub returns the distribution accumulated since base (measurement
// windows); base must be an earlier snapshot of the same histogram.
func (h Histogram) Sub(base Histogram) Histogram {
	d := Histogram{count: h.count - base.count, sum: h.sum - base.sum}
	for i := range h.buckets {
		d.buckets[i] = h.buckets[i] - base.buckets[i]
	}
	return d
}
