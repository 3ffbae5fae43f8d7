package lint

import (
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerDettaint is the one determinism analyzer. Every nondeterminism
// source — wall-clock read, global math/rand call, order-escaping map
// range — in a function body or a package-level declaration is reported
// once, at its position:
//
//   - If a deterministic root reaches it — the functions whose outputs
//     the reproduction guarantees bit-for-bit (core routing, MCTS search,
//     RL label generation) — the finding names the root and the call
//     path, however many package boundaries lie between them.
//   - Otherwise it is a finding where its per-site rule applies (see
//     siteRule): map order in the deterministic packages, a clock read
//     outside package main and the timing packages, a global rand call
//     anywhere.
//
// A reviewed exception is written as //oarsmt:allow dettaint(reason) on
// the source line or the line above (the obs span clocks, the store
// compaction timestamps). An annotated source does not propagate through
// the summaries; it is still reported wherever it would be without the
// annotation, so the annotation counts as used, and goes stale (a finding
// of its own) once nothing would report the source.
//
// Roots are matched by the table below plus any function whose doc
// comment carries an //oarsmt:detroot directive (used by the golden
// corpus and available to future packages that introduce new
// deterministic surfaces).
var AnalyzerDettaint = &Analyzer{
	Name:       "dettaint",
	Doc:        "clock reads, global math/rand and escaping map order, per site and from deterministic roots",
	RunProgram: runDettaint,
}

// detRootMarker marks additional deterministic roots in doc comments.
const detRootMarker = "//oarsmt:detroot"

// detRoots are the functions whose transitive call trees must be free of
// unannotated nondeterminism: the routing core, the searcher that
// generates training labels, and the trainer stages that consume them.
var detRoots = []struct {
	pkgSuffix string // module-relative package suffix
	recv      string // receiver type name, "" for plain functions
	name      string
}{
	{"internal/core", "Router", "Route"},
	{"internal/core", "", "PlainOARMST"},
	{"internal/mcts", "", "Search"},
	{"internal/mcts", "", "SearchCtx"},
	{"internal/mcts", "Searcher", "Run"},
	{"internal/mcts", "Searcher", "RunCtx"},
	{"internal/rl", "Trainer", "GenerateSamples"},
	{"internal/rl", "Trainer", "GenerateSamplesCtx"},
	{"internal/rl", "Trainer", "RunStage"},
	{"internal/rl", "Trainer", "RunStageCtx"},
	{"internal/rl", "Trainer", "Fit"},
}

// isDetRoot reports whether the function is a deterministic root.
func isDetRoot(fi *FuncInfo) bool {
	if docContains(fi.Decl, detRootMarker) {
		return true
	}
	fn := fi.Fn
	if fn.Pkg() == nil {
		return false
	}
	recv := receiverTypeName(fn)
	for _, r := range detRoots {
		if fn.Name() == r.name && recv == r.recv && pathIsAny(fn.Pkg().Path(), r.pkgSuffix) {
			return true
		}
	}
	return false
}

// receiverTypeName returns the bare receiver type name ("Router" for
// *Router), or "".
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func runDettaint(prog *Program, report func(pos token.Pos, format string, args ...any)) {
	reported := make(map[token.Pos]bool)
	for _, root := range prog.Functions() {
		if !isDetRoot(root) {
			continue
		}
		// Breadth-first from the root so the reported call path is a
		// shortest chain; neighbor order follows source order, so the
		// output is deterministic.
		parent := map[*FuncInfo]*FuncInfo{root: nil}
		queue := []*FuncInfo{root}
		for len(queue) > 0 {
			fi := queue[0]
			queue = queue[1:]
			for _, src := range fi.Summary.Sources {
				if reported[src.Pos] {
					continue
				}
				reported[src.Pos] = true
				report(src.Pos, "%s (%s) reaches deterministic root %s via %s; results must be bit-reproducible — plumb the value in from outside the root, or annotate //oarsmt:allow dettaint(reason)",
					src.Kind, src.Desc, FuncDisplayName(root.Fn), pathString(fi, parent))
			}
			for _, call := range fi.Calls {
				callee, ok := prog.Funcs[call.Callee]
				if !ok {
					continue
				}
				if _, seen := parent[callee]; seen {
					continue
				}
				if !callee.Summary.ReachesAny() {
					continue // prune: nothing to find below
				}
				parent[callee] = fi
				queue = append(queue, callee)
			}
		}
	}
	live := rootReachable(prog)
	for _, src := range prog.sources {
		if !reported[src.Pos] && (src.local || src.allowed && live[src.fn]) {
			report(src.Pos, "%s", src.siteMessage())
		}
	}
}

// rootReachable returns every function some deterministic root calls,
// directly or transitively, itself included. It places the annotated
// sources, which the pruned taint walk never visits.
func rootReachable(prog *Program) map[*FuncInfo]bool {
	live := make(map[*FuncInfo]bool)
	var queue []*FuncInfo
	for _, fi := range prog.Functions() {
		if isDetRoot(fi) {
			live[fi] = true
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for _, call := range fi.Calls {
			if callee, ok := prog.Funcs[call.Callee]; ok && !live[callee] {
				live[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	return live
}

// pathString renders the BFS chain root → … → fi.
func pathString(fi *FuncInfo, parent map[*FuncInfo]*FuncInfo) string {
	var names []string
	for n := fi; n != nil; n = parent[n] {
		names = append(names, FuncDisplayName(n.Fn))
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}
