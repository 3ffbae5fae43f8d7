// oarsmt-train trains a Steiner-point selector with the combinatorial-MCTS
// pipeline (paper §3.5-3.6) and saves the model.
//
// Usage:
//
//	oarsmt-train -o selector.gob -stages 6 -hv 8,12 -layers 2 \
//	    -layouts 3 -alpha 16 -base 6 -depth 2
//
// The defaults train a compact CPU-scale model in a few minutes. The
// paper-scale schedule (-paper) uses the 12 mixed sizes of §3.6 and the
// full curriculum; expect it to run for a very long time on a CPU.
//
// With -ckpt-dir the trainer writes a crash-safe checksummed checkpoint
// (model + optimizer + RNG state) after every stage; after a crash or
// SIGKILL, rerunning with -resume and the same flags continues from the
// newest intact checkpoint and produces a bit-identical final model:
//
//	oarsmt-train -o selector.gob -stages 8 -ckpt-dir ckpts   # killed at stage 5
//	oarsmt-train -o selector.gob -stages 8 -ckpt-dir ckpts -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"math/rand"
	"oarsmt/internal/layout"
	"oarsmt/internal/mcts"
	"oarsmt/internal/nn"
	"oarsmt/internal/obs"
	"oarsmt/internal/parallel"
	"oarsmt/internal/rl"
	"oarsmt/internal/selector"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oarsmt-train: ")

	var (
		out      = flag.String("o", "selector.gob", "output model path")
		from     = flag.String("from", "", "existing model to continue training (fresh optimizer/RNG)")
		resume   = flag.Bool("resume", false, "resume bit-identically from the newest checkpoint in -ckpt-dir")
		ckptDir  = flag.String("ckpt-dir", "", "write a crash-safe checkpoint here after every stage")
		ckptKeep = flag.Int("ckpt-keep", 3, "checkpoints to retain in -ckpt-dir (0 = all)")
		stages   = flag.Int("stages", 6, "training stages (paper: 32)")
		hvList   = flag.String("hv", "8,12", "comma-separated H=V sizes (paper: 16,24,32)")
		mList    = flag.String("layers", "2", "comma-separated layer counts (paper: 4,6,8,10)")
		layouts  = flag.Int("layouts", 3, "layouts per size per stage (paper: 1000)")
		alpha    = flag.Int("alpha", 16, "MCTS iterations per move at 16x16x4 scale (paper: 2000)")
		base     = flag.Int("base", 6, "U-Net base channels")
		depth    = flag.Int("depth", 2, "U-Net depth")
		norm     = flag.Int("norm", 0, "GroupNorm groups (0 = off; must divide base)")
		batch    = flag.Int("batch", 32, "batch size (paper: 256)")
		epochs   = flag.Int("epochs", 2, "epochs per stage (paper: 4)")
		lr       = flag.Float64("lr", 2e-3, "Adam learning rate")
		seed     = flag.Int64("seed", 1, "random seed")
		curr     = flag.Int("curriculum", 2, "curriculum stages (paper: 4)")
		noAug    = flag.Bool("no-augment", false, "disable 16x data augmentation")
		paperSch = flag.Bool("paper", false, "use the paper's full 12-size schedule")
		metrics  = flag.String("metrics", "", "append per-stage metrics to this CSV file")
		workers  = flag.Int("workers", 0, "worker goroutines for the compute pool (0 = GOMAXPROCS)")
		tracePth = flag.String("trace", "", "write a JSON span tree of the training run to this file")
	)
	flag.Parse()
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	var sizes []layout.TrainingSize
	if *paperSch {
		sizes = layout.TrainingSizes()
	} else {
		hvs, err := parseInts(*hvList)
		if err != nil {
			log.Fatalf("-hv: %v", err)
		}
		ms, err := parseInts(*mList)
		if err != nil {
			log.Fatalf("-layers: %v", err)
		}
		for _, hv := range hvs {
			for _, m := range ms {
				sizes = append(sizes, layout.TrainingSize{HV: hv, M: m})
			}
		}
	}

	if *resume && *from != "" {
		log.Fatal("-resume and -from are mutually exclusive: -resume restores the full training state from -ckpt-dir, -from only loads model weights")
	}
	if *resume && *ckptDir == "" {
		log.Fatal("-resume needs -ckpt-dir to know where the checkpoints live")
	}

	var sel *selector.Selector
	var err error
	switch {
	case *resume:
		// The selector comes out of the checkpoint itself; created below
		// once the config is assembled.
	case *from != "":
		f, ferr := os.Open(*from)
		if ferr != nil {
			log.Fatal(ferr)
		}
		sel, err = selector.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("continuing from model %s (%d parameters)", *from, sel.Net.NumParams())
	default:
		sel, err = selector.NewRandom(rand.New(rand.NewSource(*seed)), nn.UNetConfig{
			InChannels: selector.NumFeatures, Base: *base, Depth: *depth, Kernel: 3, Norm: *norm,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("fresh selector: base=%d depth=%d (%d parameters)", *base, *depth, sel.Net.NumParams())
	}

	cfg := rl.Config{
		Sizes:            sizes,
		LayoutsPerSize:   *layouts,
		MinPins:          3,
		MaxPins:          6,
		CurriculumStages: *curr,
		MCTS:             mcts.Config{Iterations: *alpha, ScaleIterations: true, UseCritic: true, CPuct: 1, MaxNoChange: 3},
		Augment:          !*noAug,
		BatchSize:        *batch,
		EpochsPerStage:   *epochs,
		LR:               *lr,
		Seed:             *seed,
	}
	var metricsFile *os.File
	if *metrics != "" {
		var err error
		metricsFile, err = os.OpenFile(*metrics, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer metricsFile.Close()
		if st, err := metricsFile.Stat(); err == nil && st.Size() == 0 {
			fmt.Fprintln(metricsFile, "stage,episodes,samples,iterations,loss,mean_root_cost,mean_final_cost,elapsed_seconds")
		}
	}

	ctx := context.Background()
	var trace *obs.Trace
	if *tracePth != "" {
		trace = obs.NewTrace("oarsmt.train")
		ctx = obs.With(ctx, &obs.Observer{Trace: trace})
	}

	var tr *rl.Trainer
	if *resume {
		tr, err = rl.ResumeTrainer(*ckptDir, cfg, *ckptKeep)
		if err != nil {
			log.Fatal(err)
		}
		sel = tr.Selector
		log.Printf("resumed from checkpoint in %s at stage %d (%d parameters)",
			*ckptDir, tr.Stage(), sel.Net.NumParams())
	} else {
		tr = rl.NewTrainer(sel, cfg)
		if *ckptDir != "" {
			tr.EnableCheckpoints(*ckptDir, *ckptKeep)
		}
	}
	start := time.Now()
	for tr.Stage() < *stages {
		stats, err := tr.RunStageCtx(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("stage %2d  episodes=%d samples=%d (x%d aug) iters=%d loss=%.5f avg cost %.0f -> %.0f  [%.1fs]\n",
			stats.Stage, stats.Episodes, stats.Samples,
			stats.TrainedSamples/max(stats.Samples, 1), stats.MCTSIterations,
			stats.MeanLoss, stats.MeanRootCost, stats.MeanFinalCost,
			time.Since(start).Seconds())
		if metricsFile != nil {
			fmt.Fprintf(metricsFile, "%d,%d,%d,%d,%g,%g,%g,%g\n",
				stats.Stage, stats.Episodes, stats.Samples, stats.MCTSIterations,
				stats.MeanLoss, stats.MeanRootCost, stats.MeanFinalCost,
				time.Since(start).Seconds())
		}
		// Export the model after every stage so long runs always leave a
		// usable -o file; -ckpt-dir additionally persists the full training
		// state (optimizer, RNG) for bit-identical -resume.
		if err := save(sel, *out); err != nil {
			log.Fatal(err)
		}
	}
	// A resumed run that was already past -stages still leaves the model.
	if err := save(sel, *out); err != nil {
		log.Fatal(err)
	}
	if trace != nil {
		f, err := os.Create(*tracePth)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote span trace to %s", *tracePth)
	}
	log.Printf("saved %s after %d stages (%.1fs)", *out, *stages, time.Since(start).Seconds())
}

func save(sel *selector.Selector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return sel.Save(f)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
