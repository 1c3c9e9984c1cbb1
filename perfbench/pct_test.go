package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	v, n, err := percentile(seq(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if v != 990 || n != 1000 {
		t.Fatalf("p99 of 1..1000 = %v (n=%d), want 990 (n=1000)", v, n)
	}
	v, _, err = percentile(seq(20), 0.5)
	if err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{{999, 0.99}, {19, 0.5}, {0, 0.5}, {100, 0.95}} {
		if _, n, err := percentile(seq(c.n), c.q); err == nil {
			t.Errorf("p%g of %d samples accepted, want refusal", 100*c.q, c.n)
		} else if n != c.n {
			t.Errorf("p%g: sample count %d, want %d", 100*c.q, n, c.n)
		}
	}
	if _, _, err := percentile(seq(10), 1); err == nil {
		t.Error("q=1 accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
