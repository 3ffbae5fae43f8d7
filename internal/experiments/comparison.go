package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"oarsmt/internal/baseline"
	"oarsmt/internal/core"
	"oarsmt/internal/layout"
	"oarsmt/internal/parallel"
	"oarsmt/internal/selector"
	"oarsmt/internal/stats"
)

// LayoutEval records one layout's head-to-head result between the best
// algorithmic router [14] and our RL router.
type LayoutEval struct {
	BaselineCost  float64
	OurCost       float64
	BaselineTime  time.Duration
	SelectTime    time.Duration
	TotalTime     time.Duration
	ObstacleRatio float64
}

// SubsetEval aggregates one Table 1 subset.
type SubsetEval struct {
	Name    string
	Layouts []LayoutEval
}

// AvgBaselineCost returns the mean routing cost of [14] over the subset.
func (s *SubsetEval) AvgBaselineCost() float64 {
	return s.mean(func(l LayoutEval) float64 { return l.BaselineCost })
}

// AvgOurCost returns the mean routing cost of our router over the subset.
func (s *SubsetEval) AvgOurCost() float64 {
	return s.mean(func(l LayoutEval) float64 { return l.OurCost })
}

// DiffRatio returns (a-b)/a over the subset's average costs (Table 2).
func (s *SubsetEval) DiffRatio() float64 {
	a := s.AvgBaselineCost()
	if a == 0 {
		return 0
	}
	return (a - s.AvgOurCost()) / a
}

// AvgImprovementRatio returns the mean of per-layout improvement ratios,
// the bias-resistant metric of Table 2.
func (s *SubsetEval) AvgImprovementRatio() float64 {
	return s.ImprovementSummary().Mean
}

// ImprovementSummary returns full statistics of the per-layout improvement
// ratios, including the 95% confidence half-width Table 2 prints.
func (s *SubsetEval) ImprovementSummary() stats.Summary {
	xs := make([]float64, 0, len(s.Layouts))
	for _, l := range s.Layouts {
		if l.BaselineCost > 0 {
			xs = append(xs, (l.BaselineCost-l.OurCost)/l.BaselineCost)
		}
	}
	return stats.Summarize(xs)
}

// WinRate and LossRate return the fraction of layouts where our router is
// strictly cheaper / strictly more expensive than [14].
func (s *SubsetEval) WinRate() float64 {
	return s.mean(func(l LayoutEval) float64 {
		if l.OurCost < l.BaselineCost-1e-9 {
			return 1
		}
		return 0
	})
}

// LossRate returns the fraction of layouts where our router loses.
func (s *SubsetEval) LossRate() float64 {
	return s.mean(func(l LayoutEval) float64 {
		if l.OurCost > l.BaselineCost+1e-9 {
			return 1
		}
		return 0
	})
}

// AvgBaselineTime, AvgSelectTime and AvgTotalTime are the Table 3 columns.
func (s *SubsetEval) AvgBaselineTime() time.Duration {
	return s.meanDur(func(l LayoutEval) time.Duration { return l.BaselineTime })
}

// AvgSelectTime returns the mean Steiner-point-selection time.
func (s *SubsetEval) AvgSelectTime() time.Duration {
	return s.meanDur(func(l LayoutEval) time.Duration { return l.SelectTime })
}

// AvgTotalTime returns our router's mean total time.
func (s *SubsetEval) AvgTotalTime() time.Duration {
	return s.meanDur(func(l LayoutEval) time.Duration { return l.TotalTime })
}

// Speedup returns [14]'s average runtime over ours (Table 3).
func (s *SubsetEval) Speedup() float64 {
	t := s.AvgTotalTime()
	if t == 0 {
		return 0
	}
	return float64(s.AvgBaselineTime()) / float64(t)
}

func (s *SubsetEval) mean(f func(LayoutEval) float64) float64 {
	if len(s.Layouts) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range s.Layouts {
		sum += f(l)
	}
	return sum / float64(len(s.Layouts))
}

func (s *SubsetEval) meanDur(f func(LayoutEval) time.Duration) time.Duration {
	if len(s.Layouts) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range s.Layouts {
		sum += f(l)
	}
	return sum / time.Duration(len(s.Layouts))
}

// RunComparison evaluates [14] vs our router over the scale's subsets.
// The result feeds Table 2, Table 3 and Fig 10. Layout generation is
// deterministic per subset; with Options.Workers > 1 the (independent)
// per-layout evaluations run concurrently on private selector copies,
// leaving costs identical and only wall-clock timings noisier.
func RunComparison(opts Options) ([]SubsetEval, error) {
	sel, err := opts.selectorOrQuick()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers < 1 {
		workers = parallel.Workers()
	}
	ctx := opts.Context()
	counts := SubsetLayoutCounts(opts.Scale)

	var out []SubsetEval
	for _, sub := range layout.SubsetSpecs() {
		n := counts[sub.Name]
		if n == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(opts.seed()))
		ins := make([]*layout.Instance, n)
		for i := 0; i < n; i++ {
			in, err := layout.Random(rng, sub.Spec)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", sub.Name, err)
			}
			ins[i] = in
		}
		evals := make([]LayoutEval, n)
		if err := forEachParallel(n, workers, sel, func(w *core.Router, lin18 *baseline.Router, i int) error {
			in := ins[i]
			base, err := lin18.Route(in)
			if err != nil {
				return fmt.Errorf("experiments: %s baseline: %w", sub.Name, err)
			}
			res, err := w.Route(ctx, in)
			if err != nil {
				return fmt.Errorf("experiments: %s ours: %w", sub.Name, err)
			}
			evals[i] = LayoutEval{
				BaselineCost:  base.Tree.Cost,
				OurCost:       res.Tree.Cost,
				BaselineTime:  base.Elapsed,
				SelectTime:    res.SelectTime,
				TotalTime:     res.TotalTime,
				ObstacleRatio: in.Graph.ObstacleAreaRatio(),
			}
			return nil
		}); err != nil {
			return nil, err
		}
		out = append(out, SubsetEval{Name: sub.Name, Layouts: evals})
	}
	return out, nil
}

// forEachParallel runs fn over [0, n) sharded across the shared worker
// pool (capped at `workers`), giving each shard a private router pair over
// the one shared selector (its inference is goroutine-safe). Per-index
// results are identical at any worker count; the first error in shard
// order is returned.
func forEachParallel(n, workers int, sel *selector.Selector, fn func(*core.Router, *baseline.Router, int) error) error {
	errs := make([]error, max(workers, 1))
	parallel.ForWith(workers, n, func(shard, lo, hi int) {
		ours := core.NewRouter(sel)
		lin18 := baseline.New(baseline.Lin18)
		for i := lo; i < hi; i++ {
			if err := fn(ours, lin18, i); err != nil {
				errs[shard] = err
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Table2 prints the routing-cost comparison (paper Table 2).
func Table2(opts Options, evals []SubsetEval) {
	w := opts.out()
	fmt.Fprintf(w, "Table 2: Routing-cost comparison between [14] and our router (scale=%v)\n", opts.Scale)
	fmt.Fprintf(w, "%-8s %14s %14s %9s %18s %8s %8s\n",
		"subset", "[14] (a)", "ours (b)", "(a-b)/a", "avg imp. (95% CI)", "win", "loss")
	for i := range evals {
		e := &evals[i]
		imp := e.ImprovementSummary()
		fmt.Fprintf(w, "%-8s %14.0f %14.0f %8.3f%% %8.3f%%±%5.3f%% %7.1f%% %7.1f%%\n",
			e.Name, e.AvgBaselineCost(), e.AvgOurCost(),
			100*e.DiffRatio(), 100*imp.Mean, 100*imp.CI95(),
			100*e.WinRate(), 100*e.LossRate())
	}
}

// Table3 prints the runtime comparison (paper Table 3).
func Table3(opts Options, evals []SubsetEval) {
	w := opts.out()
	fmt.Fprintf(w, "Table 3: Runtime comparison between [14] and our router (scale=%v)\n", opts.Scale)
	fmt.Fprintf(w, "%-8s %16s %16s %16s %9s\n",
		"subset", "[14] avg (a)", "Spoint select", "total (b)", "speedup")
	for i := range evals {
		e := &evals[i]
		fmt.Fprintf(w, "%-8s %16s %16s %16s %8.1fx\n",
			e.Name, fmtSec(e.AvgBaselineTime()), fmtSec(e.AvgSelectTime()),
			fmtSec(e.AvgTotalTime()), e.Speedup())
	}
}

func fmtSec(d time.Duration) string {
	return fmt.Sprintf("%.4fs", d.Seconds())
}

// Fig10Bucket is one point of the paper's Fig 10: the average improvement
// ratio of layouts whose obstacle ratio falls in [Lo, Hi).
type Fig10Bucket struct {
	Lo, Hi float64
	Count  int
	AvgImp float64
}

// Fig10 groups each subset's layouts by obstacle ratio and prints the
// average improvement ratio per bucket (paper Fig 10).
func Fig10(opts Options, evals []SubsetEval, nBuckets int) map[string][]Fig10Bucket {
	if nBuckets <= 0 {
		nBuckets = 5
	}
	w := opts.out()
	fmt.Fprintf(w, "Fig 10: Average improvement ratio against [14] vs obstacle ratio (scale=%v)\n", opts.Scale)
	out := map[string][]Fig10Bucket{}
	for i := range evals {
		e := &evals[i]
		lo, hi := 1.0, 0.0
		for _, l := range e.Layouts {
			if l.ObstacleRatio < lo {
				lo = l.ObstacleRatio
			}
			if l.ObstacleRatio > hi {
				hi = l.ObstacleRatio
			}
		}
		if hi <= lo {
			hi = lo + 1e-9
		}
		buckets := make([]Fig10Bucket, nBuckets)
		step := (hi - lo) / float64(nBuckets)
		for b := range buckets {
			buckets[b].Lo = lo + float64(float64(b)*step)
			buckets[b].Hi = buckets[b].Lo + step
		}
		for _, l := range e.Layouts {
			b := int((l.ObstacleRatio - lo) / step)
			if b >= nBuckets {
				b = nBuckets - 1
			}
			imp := 0.0
			if l.BaselineCost > 0 {
				imp = (l.BaselineCost - l.OurCost) / l.BaselineCost
			}
			buckets[b].AvgImp += imp
			buckets[b].Count++
		}
		fmt.Fprintf(w, "%s:", e.Name)
		for b := range buckets {
			if buckets[b].Count > 0 {
				buckets[b].AvgImp /= float64(buckets[b].Count)
			}
			fmt.Fprintf(w, "  [%.3f,%.3f) %.3f%% (n=%d)",
				buckets[b].Lo, buckets[b].Hi, 100*buckets[b].AvgImp, buckets[b].Count)
		}
		fmt.Fprintln(w)
		out[e.Name] = buckets
	}
	return out
}
