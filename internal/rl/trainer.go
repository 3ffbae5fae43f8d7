package rl

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"oarsmt/internal/errs"
	"oarsmt/internal/layout"
	"oarsmt/internal/mcts"
	"oarsmt/internal/nn"
	"oarsmt/internal/obs"
	"oarsmt/internal/parallel"
	"oarsmt/internal/selector"
	"oarsmt/internal/tensor"
)

// Config parameterises the training pipeline. The paper's values are in
// the comments; the defaults are CPU-scale.
type Config struct {
	// Sizes are the layout sizes of the mixed-size schedule (paper: the 12
	// combinations of layout.TrainingSizes).
	Sizes []layout.TrainingSize
	// LayoutsPerSize is the number of random layouts per size per stage
	// (paper: 1000).
	LayoutsPerSize int
	// MinPins and MaxPins bound the random pin counts after the curriculum
	// phase (paper: 3 and 6).
	MinPins, MaxPins int
	// CurriculumStages is the number of leading stages that fix the pin
	// count progressively from MinPins to MaxPins and disable the critic
	// (paper: 4).
	CurriculumStages int
	// MCTS is the per-episode search configuration; UseCritic is forced
	// off during curriculum stages.
	MCTS mcts.Config
	// Augment enables the 16-fold data augmentation (paper: on).
	Augment bool
	// BatchSize is the number of same-size samples per gradient step
	// (paper: 256).
	BatchSize int
	// EpochsPerStage repeats the generated samples (paper: 4).
	EpochsPerStage int
	// LR is the Adam learning rate.
	LR float64
	// Seed makes training reproducible.
	Seed int64
}

// DefaultConfig returns a CPU-scale configuration preserving the paper's
// schedule structure.
func DefaultConfig() Config {
	return Config{
		Sizes:            []layout.TrainingSize{{HV: 8, M: 2}, {HV: 10, M: 2}},
		LayoutsPerSize:   4,
		MinPins:          3,
		MaxPins:          6,
		CurriculumStages: 4,
		MCTS:             mcts.Config{Iterations: 24, UseCritic: true, CPuct: 1, MaxNoChange: 3},
		Augment:          true,
		BatchSize:        32,
		EpochsPerStage:   4,
		LR:               3e-3,
		Seed:             1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if len(c.Sizes) == 0 {
		c.Sizes = d.Sizes
	}
	if c.LayoutsPerSize <= 0 {
		c.LayoutsPerSize = d.LayoutsPerSize
	}
	if c.MinPins < 3 {
		c.MinPins = d.MinPins
	}
	if c.MaxPins < c.MinPins {
		c.MaxPins = c.MinPins
	}
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.EpochsPerStage <= 0 {
		c.EpochsPerStage = d.EpochsPerStage
	}
	if c.LR <= 0 {
		c.LR = d.LR
	}
	return c
}

// StageStats summarises one training stage.
type StageStats struct {
	Stage          int
	Samples        int // before augmentation
	TrainedSamples int // after augmentation
	Episodes       int
	MCTSIterations int
	MeanLoss       float64
	MeanRootCost   float64
	MeanFinalCost  float64
	// EpochLosses is the mean BCE loss of each training epoch of the
	// stage, in epoch order — the stage's loss curve.
	EpochLosses []float64
}

// Trainer drives the selector-evolution loop of Fig 8. Each RunStage call
// generates samples with combinatorial MCTS under the *current* selector
// (so the actor and critic are upgraded between stages automatically) and
// fits the selector to the new samples with BCE loss.
type Trainer struct {
	Cfg      Config
	Selector *selector.Selector

	rng   *rand.Rand
	src   *detSource // rng's source; its one-word state is checkpointable
	opt   *nn.Adam
	stage int

	ckptDir  string // "" disables per-stage auto-checkpointing
	ckptKeep int
}

// NewTrainer creates a trainer over the selector.
func NewTrainer(sel *selector.Selector, cfg Config) *Trainer {
	cfg = cfg.withDefaults()
	src := newDetSource(cfg.Seed)
	return &Trainer{
		Cfg:      cfg,
		Selector: sel,
		rng:      rand.New(src),
		src:      src,
		opt:      nn.NewAdam(sel.Net.Params(), cfg.LR),
	}
}

// Stage returns the number of completed stages.
func (t *Trainer) Stage() int { return t.stage }

// stagePins returns the pin range of the next stage, implementing the
// curriculum of §3.6: stages 1..CurriculumStages use a fixed pin count
// stepping from MinPins to MaxPins, later stages draw uniformly.
func (t *Trainer) stagePins() (lo, hi int, useCritic bool) {
	s := t.stage + 1 // 1-based stage about to run
	if t.Cfg.CurriculumStages > 0 && s <= t.Cfg.CurriculumStages {
		span := t.Cfg.MaxPins - t.Cfg.MinPins
		step := 0
		if t.Cfg.CurriculumStages > 1 {
			step = (s - 1) * span / (t.Cfg.CurriculumStages - 1)
		}
		p := t.Cfg.MinPins + step
		return p, p, false
	}
	return t.Cfg.MinPins, t.Cfg.MaxPins, true
}

// GenerateSamples produces the training samples of one stage without
// updating the selector; exported for the sample-generation benchmarks.
//
// The independent MCTS episodes run across the parallel worker pool, all
// searching with the one current selector (its inference is
// goroutine-safe). Layout
// generation stays serial so the trainer's RNG is consumed in a fixed
// order, and the episode results are folded in layout order, so samples
// and statistics are identical at every worker count.
func (t *Trainer) GenerateSamples() ([]mcts.Sample, StageStats, error) {
	return t.GenerateSamplesCtx(context.Background())
}

// GenerateSamplesCtx is GenerateSamples under a cancellation context; the
// context also carries the observability sinks of the episode spans.
func (t *Trainer) GenerateSamplesCtx(ctx context.Context) ([]mcts.Sample, StageStats, error) {
	ctx, end := obs.Span(ctx, "rl.generate")
	defer end()
	lo, hi, useCritic := t.stagePins()
	cfg := t.Cfg.MCTS
	cfg.UseCritic = cfg.UseCritic && useCritic

	stats := StageStats{Stage: t.stage + 1}
	var ins []*layout.Instance
	for _, size := range t.Cfg.Sizes {
		spec := layout.TrainingSpec(size, lo, hi)
		for i := 0; i < t.Cfg.LayoutsPerSize; i++ {
			in, err := layout.Random(t.rng, spec)
			if err != nil {
				return nil, stats, fmt.Errorf("rl: stage %d: %w", t.stage+1, err)
			}
			ins = append(ins, in)
		}
	}

	results := make([]*mcts.Result, len(ins))
	errs := make([]error, parallel.Workers())
	parallel.For(len(ins), func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			res, err := mcts.SearchCtx(ctx, t.Selector, ins[i], cfg)
			if err != nil {
				errs[shard] = err
				return
			}
			results[i] = res
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, stats, fmt.Errorf("rl: stage %d: %w", t.stage+1, err)
		}
	}

	var samples []mcts.Sample
	for _, res := range results {
		samples = append(samples, res.Sample)
		stats.Episodes++
		stats.MCTSIterations += res.Iterations
		stats.MeanRootCost += res.RootCost
		stats.MeanFinalCost += res.FinalCost
	}
	if stats.Episodes > 0 {
		stats.MeanRootCost /= float64(stats.Episodes)
		stats.MeanFinalCost /= float64(stats.Episodes)
	}
	stats.Samples = len(samples)
	m := obs.MetricsFrom(ctx)
	m.Counter("rl.episodes").Add(int64(stats.Episodes))
	m.Counter("rl.samples").Add(int64(stats.Samples))
	return samples, stats, nil
}

// RunStage performs one full stage: sample generation, augmentation, and
// EpochsPerStage epochs of same-size mini-batch training.
func (t *Trainer) RunStage() (StageStats, error) {
	return t.RunStageCtx(context.Background())
}

// RunStageCtx is RunStage under a cancellation context carrying the
// observability sinks: the stage emits rl.stage / rl.generate /
// rl.augment / rl.fit spans (with one rl.epoch span per training epoch)
// and updates the rl.* metrics.
func (t *Trainer) RunStageCtx(ctx context.Context) (StageStats, error) {
	ctx, end := obs.Span(ctx, "rl.stage")
	defer end()
	samples, stats, err := t.GenerateSamplesCtx(ctx)
	if err != nil {
		return stats, err
	}

	if t.Cfg.Augment {
		_, endAug := obs.Span(ctx, "rl.augment")
		var augmented []mcts.Sample
		for _, s := range samples {
			augmented = append(augmented, AugmentSample(s)...)
		}
		samples = augmented
		endAug()
	}
	stats.TrainedSamples = len(samples)

	loss, epochLosses, err := t.fit(ctx, samples)
	if err != nil {
		return stats, err
	}
	stats.MeanLoss = loss
	stats.EpochLosses = epochLosses
	t.stage++
	stats.Stage = t.stage

	m := obs.MetricsFrom(ctx)
	m.Counter("rl.stages").Inc()
	m.FloatGauge("rl.loss").Set(loss)

	if t.ckptDir != "" {
		if _, err := t.SaveCheckpoint(); err != nil {
			// The stage itself succeeded; surface the checkpoint failure so
			// the operator knows crash-safety is gone, rather than
			// discovering it after the crash.
			return stats, err
		}
		m.Counter("rl.checkpoints").Inc()
	}
	return stats, nil
}

// Fit trains the selector on the samples for EpochsPerStage epochs with
// same-size batches (Fig 9) and returns the mean BCE loss of the final
// epoch.
func (t *Trainer) Fit(samples []mcts.Sample) (float64, error) {
	loss, _, err := t.fit(context.Background(), samples)
	return loss, err
}

// fit is Fit with observability: an rl.fit span wrapping the epoch loop,
// one rl.epoch span per epoch, and the per-epoch loss curve returned for
// StageStats.
func (t *Trainer) fit(ctx context.Context, samples []mcts.Sample) (float64, []float64, error) {
	ctx, end := obs.Span(ctx, "rl.fit")
	defer end()
	if len(samples) == 0 {
		return 0, nil, fmt.Errorf("%w: rl: no samples to fit", errs.ErrInvalidConfig)
	}
	// Group by layout dimensions so every batch has a single size.
	groups := map[[3]int][]int{}
	for i, s := range samples {
		g := s.Instance.Graph
		key := [3]int{g.H, g.V, g.M}
		groups[key] = append(groups[key], i)
	}
	keys := make([][3]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessKey(keys[i], keys[j]) })

	var lastEpochLoss float64
	epochLosses := make([]float64, 0, t.Cfg.EpochsPerStage)
	epochHist := obs.MetricsFrom(ctx).Histogram("rl.epoch_latency")
	for epoch := 0; epoch < t.Cfg.EpochsPerStage; epoch++ {
		epochTimer := obs.StartTimer()
		totalLoss, nBatches := 0.0, 0
		for _, key := range keys {
			idxs := append([]int(nil), groups[key]...)
			t.rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
			for start := 0; start < len(idxs); start += t.Cfg.BatchSize {
				end := start + t.Cfg.BatchSize
				if end > len(idxs) {
					end = len(idxs)
				}
				batchLoss := 0.0
				for _, si := range idxs[start:end] {
					s := samples[si]
					g := s.Instance.Graph
					logits := t.Selector.Net.Forward(selector.Encode(g, s.Instance.Pins))
					target := tensor.FromSlice(s.Label, g.H, g.V, g.M)
					loss, grad := nn.BCEWithLogits(logits, target)
					// Scale so the batch gradient is the mean over samples.
					grad.Scale(1 / float64(end-start))
					t.Selector.Net.Backward(grad)
					batchLoss += loss
				}
				t.opt.Step()
				totalLoss += batchLoss / float64(end-start)
				nBatches++
			}
		}
		if nBatches > 0 {
			lastEpochLoss = totalLoss / float64(nBatches)
		}
		epochLosses = append(epochLosses, lastEpochLoss)
		d := epochTimer.Elapsed()
		epochHist.Observe(d)
		obs.ObserveSpan(ctx, "rl.epoch", d)
	}
	return lastEpochLoss, epochLosses, nil
}

func lessKey(a, b [3]int) bool {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
