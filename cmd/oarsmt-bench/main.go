// oarsmt-bench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	oarsmt-bench -exp table1
//	oarsmt-bench -exp table2 -scale small -model selector.gob
//	oarsmt-bench -exp fig11 -scale medium
//	oarsmt-bench -exp all -scale small -model selector.gob
//
// Experiments (comma-separated; an unknown name is an error): table1,
// table2, table3, fig10 (these three share one evaluation pass), table4,
// fig11, fig12, speedups, ablation, optgap, all.
// Scales: small (seconds-minutes), medium (minutes), paper (the paper's
// own counts; impractical on one CPU, provided for completeness).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"oarsmt/internal/experiments"
	"oarsmt/internal/obs"
	"oarsmt/internal/parallel"
	"oarsmt/internal/selector"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oarsmt-bench: ")

	var (
		exp       = flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experimentNames, ","))
		scaleFlag = flag.String("scale", "small", "small, medium or paper")
		modelPath = flag.String("model", "", "trained selector (default: the embedded pretrained model)")
		seed      = flag.Int64("seed", 1, "random seed")
		csvDir    = flag.String("csv", "", "directory to also dump raw series as CSV files")
		workers   = flag.Int("workers", 0, "worker goroutines for the compute pool (0 = OARSMT_WORKERS or GOMAXPROCS)")
		tracePath = flag.String("trace", "", "write a JSON span tree of the benchmark run to this file")
	)
	flag.Parse()
	wants, err := parseExps(*exp)
	if err != nil {
		log.Fatal(err)
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	opts := experiments.Options{Scale: scale, Seed: *seed, Out: os.Stdout}
	var trace *obs.Trace
	if *tracePath != "" {
		trace = obs.NewTrace("oarsmt.bench")
		opts.Ctx = obs.With(context.Background(), &obs.Observer{Trace: trace})
	}
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		sel, err := selector.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		opts.Selector = sel
		log.Printf("loaded model %s (%d parameters)", *modelPath, sel.Net.NumParams())
	} else {
		log.Print("no -model given: using the embedded pretrained selector")
	}

	all := wants["all"]

	if all || wants["table1"] {
		experiments.Table1(opts)
		fmt.Println()
	}
	if all || wants["table2"] || wants["table3"] || wants["fig10"] {
		evals, err := experiments.RunComparison(opts)
		if err != nil {
			log.Fatal(err)
		}
		writeCSV(*csvDir, "comparison.csv", func(w *os.File) error {
			return experiments.WriteComparisonCSV(w, evals)
		})
		if all || wants["table2"] {
			experiments.Table2(opts, evals)
			fmt.Println()
		}
		if all || wants["table3"] {
			experiments.Table3(opts, evals)
			fmt.Println()
		}
		if all || wants["fig10"] {
			buckets := experiments.Fig10(opts, evals, 5)
			writeCSV(*csvDir, "fig10.csv", func(w *os.File) error {
				return experiments.WriteFig10CSV(w, buckets)
			})
			fmt.Println()
		}
	}
	if all || wants["table4"] {
		if _, err := experiments.Table4(opts); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if all || wants["fig11"] {
		cfg := experiments.FigTrainingDefaults(11, scale)
		curves, err := experiments.TrainingComparison(opts, cfg)
		if err != nil {
			log.Fatal(err)
		}
		writeCSV(*csvDir, "fig11.csv", func(w *os.File) error {
			return experiments.WriteTrainingCSV(w, curves)
		})
		fmt.Println()
	}
	if all || wants["fig12"] {
		cfg := experiments.FigTrainingDefaults(12, scale)
		curves, err := experiments.TrainingComparison(opts, cfg)
		if err != nil {
			log.Fatal(err)
		}
		writeCSV(*csvDir, "fig12.csv", func(w *os.File) error {
			return experiments.WriteTrainingCSV(w, curves)
		})
		fmt.Println()
	}
	if all || wants["speedups"] {
		cfg := experiments.FigTrainingDefaults(12, scale)
		if _, err := experiments.MeasureSpeedups(opts, cfg); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if all || wants["ablation"] {
		n := 4
		if scale >= experiments.ScaleMedium {
			n = 16
		}
		if _, err := experiments.AblationPriorityPruning(opts, n); err != nil {
			log.Fatal(err)
		}
		if _, err := experiments.AblationGuardedAcceptance(opts, n); err != nil {
			log.Fatal(err)
		}
		if _, err := experiments.AblationBoundedMaze(opts, n); err != nil {
			log.Fatal(err)
		}
	}
	if all || wants["optgap"] {
		n := 6
		if scale >= experiments.ScaleMedium {
			n = 30
		}
		if _, err := experiments.OptimalityGap(opts, n); err != nil {
			log.Fatal(err)
		}
	}
	if trace != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteJSON(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote span trace to %s", *tracePath)
	}
}

// experimentNames are the values -exp accepts.
var experimentNames = []string{"table1", "table2", "table3", "fig10", "table4",
	"fig11", "fig12", "speedups", "ablation", "optgap", "all"}

// parseExps splits a comma-separated -exp value into the set of
// experiments to run; an unknown name is an error listing the valid ones.
func parseExps(s string) (map[string]bool, error) {
	wants := map[string]bool{}
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(experimentNames, e) {
			return nil, fmt.Errorf("-exp: unknown experiment %q (valid: %s)", e, strings.Join(experimentNames, ", "))
		}
		wants[e] = true
	}
	return wants, nil
}

// writeCSV writes one CSV artefact into dir (no-op when dir is empty).
func writeCSV(dir, name string, fill func(*os.File) error) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := fill(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}
