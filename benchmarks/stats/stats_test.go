package stats

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

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n   int
		pct float64
	}{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {3, 50},
	}
	for _, c := range cases {
		pct, v := Tail(seq(c.n))
		if pct != c.pct {
			t.Errorf("n=%d: used p%v, want p%v", c.n, pct, c.pct)
		}
		if _, beyond := Percentile(seq(c.n), pct); pct > 50 && beyond < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, pct, beyond)
		}
		if v < 1 || v > float64(c.n) {
			t.Errorf("n=%d: value %v outside the sample", c.n, v)
		}
	}
	if _, v := Tail(nil); v != 0 {
		t.Errorf("empty sample: %v", v)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := Quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q3 = Quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3,1,2 = %v, %v; want 1, 3", q1, q3)
	}
	if s := Spread(seq(10)); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", s)
	}
	if Median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median of four")
	}
}

func TestCompareVerdicts(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name  string
		cand  []float64
		lower bool
		want  Verdict
	}{
		{"slower latency", []float64{112, 113, 111, 112, 114}, true, Worse},
		{"faster latency", []float64{90, 91, 89, 90, 92}, true, Better},
		{"same latency", []float64{101, 100, 100, 99, 102}, true, Same},
		{"lower throughput", []float64{88, 89, 87, 88, 90}, false, Worse},
		{"higher throughput", []float64{110, 111, 109, 110, 112}, false, Better},
		{"too noisy to tell", []float64{80, 120, 100, 70, 104}, true, Unresolved},
	}
	for _, c := range cases {
		if got := Compare(tight, c.cand, 0.10, c.lower); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := Compare(nil, tight, 0.1, true); got != Unresolved {
		t.Errorf("missing side: %s", got)
	}
}
