package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile. A thinner tail is refused, never reported: with fewer than
// ten samples past it a p99 is one or two unlucky requests.
const minBeyond = 10

// quantile is one exact order statistic of a raw sample, with the counts
// that say how much it can be trusted.
type quantile struct {
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

// percentile returns the nearest-rank p-quantile of an ascending sample.
// It errs when fewer than minBeyond samples lie beyond the rank; the
// quantile is still returned so reports can show what was refused.
func percentile(sorted []float64, p float64) (quantile, error) {
	n := len(sorted)
	if n == 0 {
		return quantile{}, fmt.Errorf("p%g: no samples", p*100)
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = max(rank, 1)
	q := quantile{Value: sorted[rank-1], Samples: n, Beyond: n - rank}
	if q.Beyond < minBeyond {
		return q, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, q.Beyond, minBeyond)
	}
	return q, nil
}

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle order statistic of v (the lower one for an even
// count), or 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sorted(v)[(len(v)-1)/2]
}

// ratio is a/b, or 0 when b is 0 (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
