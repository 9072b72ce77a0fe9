package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// TestPercentileRefusesThinTails: a percentile needs at least ten samples
// beyond it.
func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{100, 90, 90},
		{100, 95, 0},
		{200, 95, 190},
		{1000, 99, 990},
		{999, 99, 0},
		{20, 50, 10},
		{19, 50, 0},
	} {
		got, err := percentile(seq(c.n), c.p)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %g, want a refusal", c.p, c.n, got)
		case c.want == 0 && !strings.Contains(err.Error(), "beyond"):
			t.Errorf("p%g of %d samples: refusal %q does not say why", c.p, c.n, err)
		case c.want != 0 && (err != nil || got != c.want):
			t.Errorf("p%g of %d samples = %g, %v; want %g", c.p, c.n, got, err, c.want)
		}
	}
}

// TestTailPicksTheHighestSupportedPercentile: the tail is the highest
// conventional percentile with ten samples beyond it.
func TestTailPicksTheHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{1000, 99, true},
		{300, 95, true},
		{144, 90, true},
		{40, 75, true},
		{20, 50, true},
		{12, 0, false},
	} {
		p, _, ok := tail(seq(c.n))
		if p != c.wantP || ok != c.ok {
			t.Errorf("tail of %d samples = p%g (%v), want p%g (%v)", c.n, p, ok, c.wantP, c.ok)
		}
	}
}
