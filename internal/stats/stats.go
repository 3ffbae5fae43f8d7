// Package stats provides the small set of descriptive statistics the
// experiment harness reports: means, standard deviations, normal-theory
// confidence intervals, and rate estimates. Keeping them in one tested
// package prevents subtle disagreements between experiments (population vs
// sample variance, empty-input behaviour) and makes EXPERIMENTS.md numbers
// auditable.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of observations.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary; an empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(n)
	if n > 1 {
		var sq float64
		for _, x := range xs {
			d := x - s.Mean
			sq += float64(d * d)
		}
		s.Std = math.Sqrt(sq / float64(n-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return s
}

// CI95 returns the normal-approximation 95% confidence half-width of the
// mean (1.96 * std / sqrt(n)); 0 for fewer than two observations.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// String implements fmt.Stringer with a compact mean±CI form.
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.CI95(), s.N)
}

// Rate is a Bernoulli rate estimate.
type Rate struct {
	Hits, N int
}

// Value returns the observed rate (0 for an empty sample).
func (r Rate) Value() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.N)
}

// CI95 returns the Wald 95% half-width of the rate.
func (r Rate) CI95() float64 {
	if r.N < 2 {
		return 0
	}
	p := r.Value()
	return 1.96 * math.Sqrt(p*(1-p)/float64(r.N))
}

// GeoMean returns the geometric mean of positive observations; it is the
// right aggregate for per-layout cost ratios. Non-positive inputs yield 0.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Speedup formats a ratio of durations/quantities as "N.Nx".
func Speedup(base, ours float64) string {
	if ours <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fx", base/ours)
}
