package rl

import (
	"reflect"
	"testing"

	"oarsmt/internal/parallel"
)

// TestGenerateSamplesBitEqualAcrossWorkerCounts verifies that the parallel
// episode loop produces the same samples and stage statistics as the serial
// one: layouts are generated serially (fixed RNG order), every worker
// searches with the one shared selector, and results fold in layout order.
func TestGenerateSamplesBitEqualAcrossWorkerCounts(t *testing.T) {
	prevW := parallel.Workers()
	defer parallel.SetWorkers(prevW)

	cfg := tinyConfig()
	cfg.LayoutsPerSize = 3

	run := func(workers int) ([]float64, StageStats) {
		parallel.SetWorkers(workers)
		tr := NewTrainer(tinySelector(t, 21), cfg)
		samples, stats, err := tr.GenerateSamples()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var labels []float64
		for _, s := range samples {
			labels = append(labels, s.Label...)
		}
		return labels, stats
	}

	refLabels, refStats := run(1)
	for _, w := range []int{2, 3} {
		labels, stats := run(w)
		if !reflect.DeepEqual(stats, refStats) {
			t.Fatalf("workers=%d: stats %+v != serial %+v", w, stats, refStats)
		}
		if len(labels) != len(refLabels) {
			t.Fatalf("workers=%d: %d label values != serial %d", w, len(labels), len(refLabels))
		}
		for i := range refLabels {
			if labels[i] != refLabels[i] {
				t.Fatalf("workers=%d: label value %d differs", w, i)
			}
		}
	}
}
