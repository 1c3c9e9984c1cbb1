package stats

import (
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{100, 200, 300, 400} {
		h.Add(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Mean(); got != 250 {
		t.Errorf("mean = %v, want 250", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram must report zeros")
	}
}

func TestHistogramQuantileBuckets(t *testing.T) {
	var h Histogram
	// 90 fast samples (~64-127 ns), 10 slow (~4096-8191 ns).
	for i := 0; i < 90; i++ {
		h.Add(100)
	}
	for i := 0; i < 10; i++ {
		h.Add(5000)
	}
	if q := h.Quantile(0.5); q < 100 || q > 127 {
		t.Errorf("p50 = %d, want within the 64-127 bucket", q)
	}
	if q := h.Quantile(0.99); q < 5000 {
		t.Errorf("p99 = %d, want in the slow bucket", q)
	}
}

// TestHistogramQuantileRankEdges pins the target-rank semantics at
// bucket edges: the rank is the ceiling of q·count, so a fractional
// product rounds up to the next sample. Truncation — the old bug —
// would bias every fractional quantile one sample (often one bucket)
// low: with nine fast samples and one slow one, p95 must report the
// slow bucket, because the 9.5th sample can only be the 10th.
func TestHistogramQuantileRankEdges(t *testing.T) {
	// Samples 1, 2, 4, 8, 16 occupy buckets 0..4 one each; bucket i
	// tops out at 2^(i+1)-1.
	var ladder Histogram
	for _, v := range []uint64{1, 2, 4, 8, 16} {
		ladder.Add(v)
	}
	// Nine samples in bucket 0 (top 1), one in bucket 12 (top 8191).
	var skewed Histogram
	for i := 0; i < 9; i++ {
		skewed.Add(1)
	}
	skewed.Add(5000)

	tests := []struct {
		name string
		h    *Histogram
		q    float64
		want uint64
	}{
		// Exact edges: q·count integral, rank = q·count.
		{"ladder q=0.2 rank 1", &ladder, 0.2, 1},
		{"ladder q=0.4 rank 2", &ladder, 0.4, 3},
		{"ladder q=0.6 rank 3", &ladder, 0.6, 7},
		{"ladder q=0.8 rank 4", &ladder, 0.8, 15},
		{"ladder q=1.0 rank 5", &ladder, 1.0, 31},
		// Fractional: ceil(2.5) = 3, the true median of five samples.
		// Truncation would return rank 2 (value 3) — below median.
		{"ladder q=0.5 rounds up", &ladder, 0.5, 7},
		// ceil(0.05) = 1: tiny quantiles clamp to the first sample.
		{"ladder q=0.01 first sample", &ladder, 0.01, 1},
		// p90 of 10 is exactly the 9th sample: still fast.
		{"skewed q=0.90 rank 9", &skewed, 0.90, 1},
		// p95 of 10 is the 9.5th → 10th sample: the slow bucket.
		// Truncation would report 1 here.
		{"skewed q=0.95 rounds up", &skewed, 0.95, 8191},
		{"skewed q=0.91 rounds up", &skewed, 0.91, 8191},
		{"skewed q=1.0 max", &skewed, 1.0, 8191},
	}
	for _, tc := range tests {
		if got := tc.h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %d, want %d", tc.name, tc.q, got, tc.want)
		}
	}
}

func TestHistogramSub(t *testing.T) {
	var h Histogram
	h.Add(10)
	base := h
	h.Add(1000)
	d := h.Sub(base)
	if d.Count() != 1 || d.Mean() != 1000 {
		t.Errorf("window: count=%d mean=%v", d.Count(), d.Mean())
	}
}

// Property: quantiles are monotone in q and bounded by the bucket top of
// the maximum sample.
func TestQuickHistogramQuantileMonotone(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		var max uint64
		for _, v := range vals {
			h.Add(uint64(v))
			if uint64(v) > max {
				max = uint64(v)
			}
		}
		prev := uint64(0)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1.0} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		// The top quantile is at most the top of max's bucket.
		return h.Quantile(1.0) <= (max+1)*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramZeroSample(t *testing.T) {
	var h Histogram
	h.Add(0)
	if h.Count() != 1 || h.Quantile(1.0) == 0 {
		// Bucket 0 covers [0,2); its top bound is 1.
		t.Errorf("zero sample mishandled: count=%d q=%d", h.Count(), h.Quantile(1.0))
	}
}

func TestHistogramBucketsExport(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 1, 3, 100} {
		h.Add(v)
	}
	if h.Sum() != 105 {
		t.Errorf("sum = %d, want 105", h.Sum())
	}
	bs := h.Buckets()
	if len(bs) != 3 {
		t.Fatalf("buckets = %v, want 3 occupied", bs)
	}
	var total uint64
	prev := uint64(0)
	for _, b := range bs {
		if b.Upper <= prev {
			t.Errorf("bucket bounds not ascending: %v", bs)
		}
		prev = b.Upper
		total += b.Count
	}
	if total != h.Count() {
		t.Errorf("bucket counts sum to %d, want %d", total, h.Count())
	}
	// 1,1 land in [1,2); 3 in [2,4); 100 in [64,128).
	if bs[0].Count != 2 || bs[0].Upper != 1 {
		t.Errorf("first bucket = %+v, want {1 2}", bs[0])
	}
}

// TestHistogramBinaryRoundTrip: MarshalBinary keeps every bucket, the
// count and the sum; UnmarshalBinary rejects truncated bytes.
func TestHistogramBinaryRoundTrip(t *testing.T) {
	var h Histogram
	for i := range h.buckets {
		h.buckets[i] = uint64(i)*1_000_003 + 1
	}
	h.count, h.sum = 1<<63, 1<<64-1
	b, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Histogram
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip = %+v, want %+v", got, h)
	}
	if err := got.UnmarshalBinary(b[:len(b)-1]); err == nil {
		t.Error("truncated bytes unpacked")
	}
	var empty Histogram
	if b, _ := empty.MarshalBinary(); len(b) != 2+NumBuckets {
		t.Errorf("an empty histogram packs into %d bytes, want %d", len(b), 2+NumBuckets)
	}
}
