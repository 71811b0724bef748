package main

import (
	"math"
	"sort"
)

// summary is how every timing is reported: the median, the quartiles
// around it, and how many samples they were taken over.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. Quartiles follow
// Python's statistics.quantiles(xs, n=4) (the exclusive method), so a
// spread computed here equals the one the driver computes over runs.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 2), Q1: quantile(s, 1), Q3: quantile(s, 3), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// quantile returns the k-th quartile of the sorted slice by the
// exclusive method: position k(n+1)/4 in 1-based ranks, interpolated
// linearly between the two neighbouring samples (and, as Python does,
// extrapolated from the outermost pair when the position falls outside
// them, which only happens below four samples).
func quantile(sorted []float64, k int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := float64(k) * float64(n+1) / 4 // 1-based rank
	j := min(max(int(math.Floor(pos)), 1), n-1)
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

func median(xs []float64) float64 { return summarize(xs).Median }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread is the inter-quartile distance as a share of the median — the
// steadiness measure the benchmark's bounds are judged against.
func spread(xs []float64) float64 {
	s := summarize(xs)
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// curveSamples turns a cumulative completion curve into its samples.
// cum[i] operations had completed when the curve was observed at x[i];
// x0 is the instant the batch started (cum = 0). The operations that
// completed between two observations are spread evenly over that
// interval, the last of them landing on the observation itself, so a
// curve sampled every tick (or every half millisecond) yields the
// batch's latency distribution without stamping single operations.
func curveSamples(x0 float64, x []float64, cum []int) []float64 {
	var out []float64
	prevX, prevC := x0, 0
	for i := range x {
		d := cum[i] - prevC
		for j := 1; j <= d; j++ {
			out = append(out, prevX+(x[i]-prevX)*float64(j)/float64(d))
		}
		if d > 0 {
			prevC = cum[i]
		}
		prevX = x[i]
	}
	return out
}

// percentile returns the p-th percentile (0 < p ≤ 100) of the sorted
// samples by the nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// littleMean is the mean time an operation spent in the system by
// Little's law: the area under the outstanding-operations curve divided
// by the operations that left the system. It needs no per-operation
// stamps, only the launched-minus-resolved level over time.
func littleMean(area float64, resolved int) float64 {
	if resolved == 0 {
		return 0
	}
	return area / float64(resolved)
}

// pctOver returns how far v lies above base, in percent of base.
func pctOver(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (v - base) / base
}
