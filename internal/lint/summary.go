package lint

import (
	"go/ast"
	"go/types"
)

// Summary is the per-function fact set the fixpoint engine propagates
// over the call graph. Direct facts are extracted once from the AST;
// Reaches is the transitive closure (direct facts plus everything any
// statically resolved callee reaches), computed by iterating to a
// fixpoint so cycles and any call-graph shape converge.
type Summary struct {
	// Sources are the function's own nondeterminism sources that no
	// //oarsmt:allow dettaint annotation covers: wall-clock reads, global
	// math/rand calls, and map ranges whose order is not re-canonicalised
	// by sorting.
	Sources []Source
	// Reaches[kind] reports whether the function transitively reaches a
	// source of that kind (including its own).
	Reaches [3]bool
	// Sanitizes reports that the function wraps a declared sentinel error
	// with %w: errors flowing through it are presumed classified, so
	// errwrap's boundary walk stops here.
	Sanitizes bool
	// Bares are fresh errors (errors.New, fmt.Errorf without %w) created
	// in the body that can escape through a return statement.
	Bares []BareError
}

// ReachesAny reports whether the function reaches any nondeterminism
// source at all.
func (s *Summary) ReachesAny() bool {
	return s.Reaches[SrcWallClock] || s.Reaches[SrcGlobalRand] || s.Reaches[SrcMapOrder]
}

// computeSummaries fills every FuncInfo.Summary and prog.sources: one AST
// pass over every top-level declaration for direct facts, then a
// worklist-free round-robin fixpoint for reachability (the graph is small
// — the whole module is a few hundred functions — so
// iterate-until-stable beats maintaining SCC machinery).
func computeSummaries(prog *Program) {
	for _, fi := range prog.order {
		fi.Summary = &Summary{}
		fi.Summary.Sanitizes, fi.Summary.Bares = errorFacts(fi.Pkg, fi.Decl)
	}
	for _, p := range prog.Pkgs {
		allowed := allowedLines(p)
		for _, f := range p.Files {
			file := p.Fset.Position(f.Pos()).Filename
			for _, decl := range f.Decls {
				var fi *FuncInfo
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn, _ := p.Info.Defs[fd.Name].(*types.Func)
					fi = prog.Funcs[fn]
				}
				for _, src := range declSources(p, decl) {
					pos := p.Fset.Position(src.Pos)
					src.allowed = allowed[lineKey{pos.Filename, pos.Line}]
					src.local = siteRule(p, file, src.Kind)
					src.fn = fi
					prog.sources = append(prog.sources, src)
					if fi != nil && !src.allowed {
						fi.Summary.Sources = append(fi.Summary.Sources, src)
						fi.Summary.Reaches[src.Kind] = true
					}
				}
			}
		}
	}
	// Fixpoint: propagate reachability up the call graph until stable.
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.order {
			for _, call := range fi.Calls {
				callee, ok := prog.Funcs[call.Callee]
				if !ok {
					continue // stdlib or unresolved: direct facts cover it
				}
				for k := range fi.Summary.Reaches {
					if callee.Summary.Reaches[k] && !fi.Summary.Reaches[k] {
						fi.Summary.Reaches[k] = true
						changed = true
					}
				}
			}
		}
	}
}

// lineKey is one line of one file.
type lineKey struct {
	file string
	line int
}

// allowedLines returns the lines covered by an //oarsmt:allow dettaint
// annotation in the package: the annotation's own line and the line
// below it, matching the suppression rule in lint.go.
func allowedLines(p *Package) map[lineKey]bool {
	lines := make(map[lineKey]bool)
	anns, _ := collectAnnotations(p)
	for _, an := range anns {
		if an.analyzer == AnalyzerDettaint.Name {
			lines[lineKey{an.pos.Filename, an.pos.Line}] = true
			lines[lineKey{an.pos.Filename, an.pos.Line + 1}] = true
		}
	}
	return lines
}

// docContains reports whether the function's doc comment contains the
// given marker directive (e.g. //oarsmt:detroot).
func docContains(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == marker || len(c.Text) > len(marker) && c.Text[:len(marker)] == marker {
			return true
		}
	}
	return false
}
