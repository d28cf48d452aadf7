// Package stats holds warpload's order statistics and its regression
// verdict: percentiles that refuse to report a tail the sample cannot
// support, quartiles computed the way the acceptance driver computes
// them, and the better / same / worse / unresolved rule that -compare
// applies per metric and workload.
package stats

import "sort"

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample, and how many samples lie beyond it.
func Percentile(sorted []float64, p float64) (value float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(float64(len(sorted))*p/100 + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1], len(sorted) - rank
}

// Tail reports a sample's tail as the highest of the 99th, 95th, 90th and
// 75th percentiles with at least ten samples beyond it, falling back to
// the median: a percentile resting on fewer samples is one slow request,
// not a property of the system. It returns the percentile used.
func Tail(sorted []float64) (pct, value float64) {
	for _, p := range []float64{99, 95, 90, 75} {
		if v, beyond := Percentile(sorted, p); beyond >= 10 {
			return p, v
		}
	}
	v, _ := Percentile(sorted, 50)
	return 50, v
}

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Median returns the middle of a sample (mean of the middle two when the
// count is even), 0 when empty.
func Median(xs []float64) float64 {
	s := sorted(xs)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the acceptance driver uses. Fewer than two samples have no
// spread: both quartiles are the sample itself.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return Median(s), Median(s)
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Spread is the interquartile distance as a share of the median.
func Spread(xs []float64) float64 {
	med := Median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	s := (q3 - q1) / med
	if s < 0 {
		s = -s
	}
	return s
}

// Verdict is the outcome of comparing one metric on one workload.
type Verdict string

const (
	Better     Verdict = "better"
	Same       Verdict = "same"
	Worse      Verdict = "worse"
	Unresolved Verdict = "unresolved"
)

// Compare judges candidate runs against base runs of one metric. bound is
// the share of the base median by which the metric may worsen. Worse: the
// candidate's median is worse by more than the bound. Unresolved: it is
// not, but either side's spread is wider than the bound, so "unchanged"
// cannot be told from "regressed". Better: the base has a spread to
// exceed (two runs or more) and the candidate's median is better by more
// than the distance between the base's quartiles. Same otherwise.
func Compare(base, cand []float64, bound float64, lowerIsBetter bool) Verdict {
	if len(base) == 0 || len(cand) == 0 {
		return Unresolved
	}
	bm, cm := Median(base), Median(cand)
	worsening := cm - bm // positive when lower is better and cand is higher
	if !lowerIsBetter {
		worsening = bm - cm
	}
	scale := bm
	if scale < 0 {
		scale = -scale
	}
	if worsening > bound*scale {
		return Worse
	}
	if Spread(base) > bound || Spread(cand) > bound {
		return Unresolved
	}
	q1, q3 := Quartiles(base)
	if len(base) >= 2 && worsening < 0 && -worsening > q3-q1 {
		return Better
	}
	return Same
}
