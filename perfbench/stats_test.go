package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.995, 100},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile(nil) = %g, want NaN", got)
	}
}

// TestTailRule pins the rule that a reported p99 leaves at least ten
// samples beyond it: 1000 samples are the fewest that qualify.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		beyond int
		ok     bool
	}{{999, 9, false}, {1000, 10, true}, {1010, 10, true}, {2500, 25, true}, {100, 1, false}} {
		if got := beyond(tc.n, 0.99); got != tc.beyond {
			t.Errorf("beyond(%d, 0.99) = %d, want %d", tc.n, got, tc.beyond)
		}
		p, err := tailPercentile(seq(tc.n), 0.99)
		if (err == nil) != tc.ok {
			t.Errorf("tailPercentile(%d samples): err = %v, want ok=%v", tc.n, err, tc.ok)
		}
		if err == nil {
			// Exactly `beyond` samples are larger than the percentile.
			if above := tc.n - int(p); above != tc.beyond {
				t.Errorf("%d samples: %d lie beyond p99 = %g, want %d", tc.n, above, p, tc.beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

// TestQuartilesMatchPython compares with values printed by Python's
// statistics.quantiles(xs, n=4), the method the acceptance rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{3.1, 0.5, 2.2, 8.8, 4.0, 7.5}, [3]float64{1.775, 3.55, 7.825}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, [3]float64{30, 60, 90}},
	} {
		got, err := quartiles(append([]float64(nil), tc.xs...))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
	sp, err := spread(seq(10))
	if err != nil || math.Abs(sp-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %g, %v", sp, err)
	}
}
