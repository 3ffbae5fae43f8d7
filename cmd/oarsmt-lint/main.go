// Command oarsmt-lint runs the repository's determinism & concurrency
// static-analysis suite (internal/lint) over the module.
//
// Usage:
//
//	oarsmt-lint [flags] [packages]
//
// Packages default to ./... and accept the go tool's directory patterns
// ("./internal/route", "./internal/..."), relative to the working
// directory as go vet resolves them.
// Every run loads and type-checks the packages from source; nothing is
// cached between runs.
//
// # Exit codes
//
//	0  clean: no findings
//	1  findings were reported
//	2  usage error, or the module failed to load/type-check
//
// # JSON schema
//
// -json emits a stable, machine-readable array on stdout, sorted by
// (file, line, col, analyzer, message):
//
//	[
//	  {
//	    "file": "internal/route/tree.go",   // relative to the module root
//	    "line": 42,                          // 1-based
//	    "col": 7,                            // 1-based, bytes
//	    "analyzer": "dettaint",              // or "allow" for annotation errors
//	    "message": "wall-clock read ..."
//	  }
//	]
//
// A clean run emits []; the exit codes are those of the plain output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"oarsmt/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

// run is the whole command: it lints packages of the module containing
// dir, resolving relative patterns against dir, and returns the exit
// code.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oarsmt-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as a stable JSON array on stdout (see package doc for the schema)")
		enable  = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable = fs.String("disable", "", "comma-separated analyzers to skip")
		timing  = fs.Bool("timing", false, "report per-analyzer wall time on stderr")
		list    = fs.Bool("list", false, "list available analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: oarsmt-lint [flags] [packages]\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nexit codes:\n")
		fmt.Fprintf(stderr, "  0  clean: no findings\n")
		fmt.Fprintf(stderr, "  1  findings were reported\n")
		fmt.Fprintf(stderr, "  2  usage error, or the module failed to load\n")
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "oarsmt-lint:", err)
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			kind := "package-local"
			if a.Interprocedural() {
				kind = "interprocedural"
			}
			fmt.Fprintf(stdout, "%-12s %-15s %s\n", a.Name, kind, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		return fail(err)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(dir)
	if err != nil {
		return fail(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return fail(err)
	}

	var stats *lint.Stats
	if *timing {
		stats = lint.NewStats()
	}
	diags := lint.Run(pkgs, analyzers, stats)
	if *timing {
		printTiming(stderr, stats)
	}

	if *jsonOut {
		if err := writeJSON(stdout, loader.ModuleRoot, diags); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "oarsmt-lint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// writeJSON emits the documented stable schema: a sorted array of
// {file, line, col, analyzer, message}, [] when clean, with file paths
// relative to the module root in slash form.
func writeJSON(w io.Writer, moduleRoot string, diags []lint.Diagnostic) error {
	type jsonDiag struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(moduleRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		out = append(out, jsonDiag{filepath.ToSlash(file), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// printTiming reports per-analyzer wall time, slowest first.
func printTiming(w io.Writer, stats *lint.Stats) {
	var names []string
	for name := range stats.ByAnalyzer {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if stats.ByAnalyzer[names[i]] != stats.ByAnalyzer[names[j]] {
			return stats.ByAnalyzer[names[i]] > stats.ByAnalyzer[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintln(w, "oarsmt-lint timing:")
	for _, name := range names {
		fmt.Fprintf(w, "  %-12s %v\n", name, stats.ByAnalyzer[name].Round(10*time.Microsecond))
	}
}

// selectAnalyzers resolves the -enable / -disable flags against the suite.
func selectAnalyzers(enable, disable string) ([]*lint.Analyzer, error) {
	selected := lint.Analyzers()
	if enable != "" {
		selected = selected[:0]
		for _, name := range strings.Split(enable, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				return nil, fmt.Errorf("unknown analyzer %q in -enable", name)
			}
			selected = append(selected, a)
		}
	}
	if disable != "" {
		skip := make(map[string]bool)
		for _, name := range strings.Split(disable, ",") {
			name = strings.TrimSpace(name)
			if lint.ByName(name) == nil {
				return nil, fmt.Errorf("unknown analyzer %q in -disable", name)
			}
			skip[name] = true
		}
		var kept []*lint.Analyzer
		for _, a := range selected {
			if !skip[a.Name] {
				kept = append(kept, a)
			}
		}
		selected = kept
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return selected, nil
}
