package main

import "testing"

// The comparer's quartiles must match Python's statistics.quantiles(xs,
// n=4), which the expected values below come from.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{7, 1, 3}, 1, 3, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// A stage quantile that falls in the tracer histogram's first bucket
// cannot be told from an idle stage and reads 0; one in a later bucket
// is interpolated inside it.
func TestBucketQuantile(t *testing.T) {
	bounds := []int64{16, 32, 64}
	if got := bucketQuantile(bounds, []int64{100, 0, 0, 0}, 0.99); got != 0 {
		t.Errorf("all in the first bucket: p99 = %v, want 0", got)
	}
	if got := bucketQuantile(bounds, []int64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Errorf("empty: p50 = %v, want 0", got)
	}
	if got := bucketQuantile(bounds, []int64{50, 50, 0, 0}, 0.75); got != 24 {
		t.Errorf("p75 = %v, want 24", got)
	}
	if got := bucketQuantile(bounds, []int64{50, 50, 0, 0}, 0.5); got != 0 {
		t.Errorf("p50 on the first bucket's edge = %v, want 0", got)
	}
}
