// Package lint is the repository's dependency-free static-analysis engine.
// It enforces the determinism and concurrency contracts that the rest of
// the codebase only states in prose: bit-identical routing results at any
// worker count, cache-replay equality in internal/serve, and reproducible
// MCTS-generated training labels. One unsorted map range or stray
// time.Now() in a reward path silently breaks those guarantees; one
// analyzer, dettaint, makes that contract machine-checked.
//
// The engine is built exclusively on the standard library (go/parser,
// go/ast, go/types with the source importer) because the module has zero
// dependencies and the build environment is offline.
//
// # Architecture
//
// Analyzers come in two shapes. Package-local analyzers (rawgo, spanend,
// ...) check one package's AST at a time. Interprocedural analyzers
// (dettaint, errwrap) run over a Program: a cross-package call graph with
// per-function summaries — nondeterminism sources reached, sentinel errors
// wrapped — propagated to a fixpoint, so a clock read two package
// boundaries below a deterministic root is still found. See
// DESIGN.md "Static analysis" for the analyzer catalogue, the summary
// machinery, and the annotation grammar.
//
// # Suppressions
//
// A finding that is a provably order-insensitive reduction (or otherwise
// intentional) is whitelisted in place with
//
//	//oarsmt:allow <analyzer>(<reason>)
//
// on the offending line or the line directly above it. The runner verifies
// that every annotation suppresses at least one finding; a stale
// annotation is itself reported, so suppressions cannot rot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic in the conventional file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one type-checked package as the analyzers see it.
type Package struct {
	// Path is the import path ("oarsmt/internal/route"). Corpus packages
	// loaded from testdata get a synthetic "testdata/<name>" path.
	Path  string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	// Types and Info come from go/types; Info is always populated even
	// when type checking reported errors (analysis degrades gracefully).
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds non-fatal type-checker errors, mostly useful when
	// debugging the loader itself.
	TypeErrors []error
}

// An Analyzer checks one invariant. Exactly one of Run (package-local)
// and RunProgram (interprocedural, needs the whole-program call graph and
// summaries) is set.
type Analyzer struct {
	Name string
	Doc  string
	// Run checks one package in isolation.
	Run func(p *Package, report func(pos token.Pos, format string, args ...any))
	// RunProgram checks the whole program; findings may land in any
	// package (the engine resolves suppressions by position).
	RunProgram func(prog *Program, report func(pos token.Pos, format string, args ...any))
}

// Interprocedural reports whether the analyzer needs a whole-program view.
func (a *Analyzer) Interprocedural() bool { return a.RunProgram != nil }

// Analyzers returns the full suite in stable order: the package-local
// analyzers first, then the interprocedural ones.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerRawGo,
		AnalyzerFloatReduce,
		AnalyzerCtxHygiene,
		AnalyzerObsNames,
		AnalyzerGoroleak,
		AnalyzerSpanend,
		AnalyzerDettaint,
		AnalyzerErrwrap,
	}
}

// ByName resolves an analyzer by name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Stats accumulates per-analyzer wall time across a run; pass nil to skip
// timing entirely.
type Stats struct {
	ByAnalyzer map[string]time.Duration
}

// NewStats returns an empty timing collector.
func NewStats() *Stats { return &Stats{ByAnalyzer: make(map[string]time.Duration)} }

// timed runs f, attributing its wall time to name. Timing is measurement
// of the linter itself, never an input to any analyzed result.
func (s *Stats) timed(name string, f func()) {
	if s == nil {
		f()
		return
	}
	start := time.Now() //oarsmt:allow dettaint(analyzer self-timing for make lint -timing; measurement only, never analysis input)
	f()
	s.ByAnalyzer[name] += time.Since(start) //oarsmt:allow dettaint(analyzer self-timing for make lint -timing; measurement only, never analysis input)
}

// Run executes the given analyzers over the packages, applies the
// //oarsmt:allow suppressions, and returns the surviving diagnostics
// sorted by position. Package-local analyzers see one package at a time;
// interprocedural analyzers run over a Program built from exactly the
// given packages, and their findings may land in any of them. Unused
// annotations and annotation grammar errors are reported as findings of
// the pseudo-analyzer "allow". Per-analyzer wall time goes to stats
// unless it is nil.
func Run(pkgs []*Package, analyzers []*Analyzer, stats *Stats) []Diagnostic {
	var anns []*annotation
	var diags []Diagnostic
	for _, p := range pkgs {
		a, bad := collectAnnotations(p)
		anns = append(anns, a...)
		diags = append(diags, bad...)
	}
	var prog *Program
	for _, a := range analyzers {
		if a.Interprocedural() {
			prog = BuildProgram(pkgs)
			break
		}
	}
	var raw []Diagnostic
	for _, a := range analyzers {
		report := func(fset *token.FileSet) func(token.Pos, string, ...any) {
			return func(pos token.Pos, format string, args ...any) {
				raw = append(raw, Diagnostic{
					Pos:      fset.Position(pos),
					Analyzer: a.Name,
					Message:  fmt.Sprintf(format, args...),
				})
			}
		}
		stats.timed(a.Name, func() {
			if a.Interprocedural() {
				a.RunProgram(prog, report(prog.Fset()))
				return
			}
			for _, p := range pkgs {
				a.Run(p, report(p.Fset))
			}
		})
	}
	diags = append(diags, applySuppressions(anns, raw)...)
	diags = append(diags, unusedAnnotations(anns, analyzers)...)
	sortDiagnostics(diags)
	return diags
}

// Fset returns the shared file set of the program's packages.
func (prog *Program) Fset() *token.FileSet {
	if len(prog.Pkgs) > 0 {
		return prog.Pkgs[0].Fset
	}
	return token.NewFileSet()
}

// applySuppressions drops diagnostics covered by a matching annotation,
// marking those annotations used.
func applySuppressions(anns []*annotation, raw []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range raw {
		if !suppress(anns, d) {
			out = append(out, d)
		}
	}
	return out
}

// unusedAnnotations reports annotations for enabled analyzers that
// suppressed nothing: the code they excused has been fixed (or the
// annotation is wrong) and they must be deleted. Annotations for
// analyzers outside the enabled set are exempt rather than falsely
// "unused".
func unusedAnnotations(anns []*annotation, enabled []*Analyzer) []Diagnostic {
	names := make(map[string]bool, len(enabled))
	for _, a := range enabled {
		names[a.Name] = true
	}
	var out []Diagnostic
	for _, an := range anns {
		if !an.used && names[an.analyzer] {
			out = append(out, Diagnostic{
				Pos:      an.pos,
				Analyzer: "allow",
				Message: fmt.Sprintf(
					"unused //oarsmt:allow %s annotation: it suppresses no finding; delete it", an.analyzer),
			})
		}
	}
	return out
}

// sortDiagnostics orders findings by file, line, column, analyzer — the
// stable order the -json schema documents.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// suppress consumes a matching annotation for the diagnostic, if any.
func suppress(anns []*annotation, d Diagnostic) bool {
	for _, an := range anns {
		if an.analyzer != d.Analyzer || an.pos.Filename != d.Pos.Filename {
			continue
		}
		// The annotation covers its own line (trailing comment) and the
		// line directly below (comment on its own line above the code).
		if d.Pos.Line == an.pos.Line || d.Pos.Line == an.pos.Line+1 {
			an.used = true
			return true
		}
	}
	return false
}

// detPackages are the import-path suffixes of the packages whose outputs
// must be bit-reproducible: anything feeding tree construction,
// serialization, training labels, or the serving cache key. dettaint
// enforces map-range hygiene per site inside them, and follows actual call
// paths out of the deterministic roots into any package beyond them.
var detPackages = []string{
	"internal/geom",
	"internal/grid",
	"internal/layout",
	"internal/route",
	"internal/mcts",
	"internal/core",
	"internal/nn",
	"internal/tensor",
	"internal/rl",
	// The route store's segment bytes must be reproducible (compaction
	// rewrites are compared bit-for-bit across machines), so the whole
	// package is held to collect-then-sort iteration.
	"internal/store",
}

// isDeterministicFile reports whether the per-site map-order rule applies
// to the file: every file of a deterministic package, plus the
// canonical-hash half of internal/serve (serve/hash.go feeds the cache
// key, so its iteration order is part of the serving contract even though
// the rest of serve is free to use maps for bookkeeping). Corpus packages
// under testdata are always in scope so the golden tests exercise the rule.
func isDeterministicFile(p *Package, filename string) bool {
	if strings.HasPrefix(p.Path, "testdata/") {
		return true
	}
	for _, suf := range detPackages {
		if p.Path == "oarsmt/"+suf || strings.HasSuffix(p.Path, "/"+suf) {
			return true
		}
	}
	return strings.HasSuffix(filename, "internal/serve/hash.go")
}

// pathIsAny reports whether the package path matches one of the given
// module-relative suffixes.
func pathIsAny(path string, sufs ...string) bool {
	for _, suf := range sufs {
		if path == "oarsmt/"+suf || strings.HasSuffix(path, "/"+suf) || path == suf {
			return true
		}
	}
	return false
}
