package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the shared fact-extraction layer: the syntactic patterns
// that identify nondeterminism sources and error-contract facts are
// recognised in exactly one place, and the interprocedural summary
// computation (callgraph.go / summary.go) is their only consumer.

// SourceKind classifies one nondeterminism source.
type SourceKind uint8

const (
	// SrcWallClock is a time.Now/Since/Until read.
	SrcWallClock SourceKind = iota
	// SrcGlobalRand is a math/rand (or rand/v2) package-level function
	// drawing from the shared global source.
	SrcGlobalRand
	// SrcMapOrder is a range over a map that is not collect-then-sorted,
	// so its iteration order can escape into results.
	SrcMapOrder
)

func (k SourceKind) String() string {
	switch k {
	case SrcWallClock:
		return "wall-clock read"
	case SrcGlobalRand:
		return "global math/rand call"
	case SrcMapOrder:
		return "map iteration order"
	}
	return "unknown source"
}

// Source is one nondeterminism source site.
type Source struct {
	Kind SourceKind
	Pos  token.Pos
	// Desc names the offending expression ("time.Now", "rand.Intn",
	// "range over map m").
	Desc string
	// allowed reports that an //oarsmt:allow dettaint annotation covers
	// the source: it never propagates through summaries.
	allowed bool
	// local reports that the source is a finding at its own site, whether
	// or not a deterministic root reaches it (see siteRule).
	local bool
	// fn is the enclosing declared function; nil at package level.
	fn *FuncInfo
}

// siteMessage is the finding for a source that no deterministic root
// reaches.
func (s Source) siteMessage() string {
	switch s.Kind {
	case SrcWallClock:
		return s.Desc + " outside timing code: wall-clock reads make results vary run to run; plumb durations in from the caller or annotate //oarsmt:allow dettaint(reason)"
	case SrcGlobalRand:
		return s.Desc + " uses the shared global source: results depend on call interleaving; use a seeded rand.New(rand.NewSource(seed)) instance"
	}
	return s.Desc + ": iteration order may leak into results; collect and sort keys, or annotate //oarsmt:allow dettaint(reason)"
}

var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// wallClockPackages are the module-relative packages allowed to read the
// wall clock wholesale: the serving layer (request latency is the product)
// and the experiment/baseline harnesses (elapsed time is the measurement).
// Everywhere else a read needs a per-site //oarsmt:allow dettaint(reason)
// — internal/store's compaction timestamps are the canonical example: an
// annotated read feeding metrics only, while the rest of the package stays
// clock-free so segment bytes are a pure function of the records. Package
// main (cmd/ daemons, examples) is always exempt.
var wallClockPackages = []string{
	"internal/serve",
	"internal/cluster",
	"internal/experiments",
	"internal/baseline",
}

// randConstructors build explicit per-purpose generators; only the other
// package-level math/rand functions draw from the shared global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

// siteRule reports whether a source of kind k in the file is a finding at
// its own site: map order in the deterministic files, a clock read outside
// package main and the timing packages, a global rand call anywhere.
func siteRule(p *Package, file string, k SourceKind) bool {
	switch k {
	case SrcMapOrder:
		return isDeterministicFile(p, file)
	case SrcWallClock:
		return p.Name != "main" && !pathIsAny(p.Path, wallClockPackages...)
	}
	return true
}

// declSources returns every nondeterminism source of one top-level
// declaration in source order: wall-clock reads, global math/rand uses
// (calls and function values alike), and map ranges that are not
// collect-then-sorted. Package-level declarations count too: a
// `var t = time.Now()` initializer or a func literal held in a package
// variable.
func declSources(p *Package, decl ast.Decl) []Source {
	var out []Source
	sorts := sortCalls(p, decl)
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if name, ok := selTo(p, n, "time"); ok && wallClockFuncs[name] {
				out = append(out, Source{Kind: SrcWallClock, Pos: n.Pos(), Desc: "time." + name})
			} else if isGlobalRand(p, n) {
				out = append(out, Source{Kind: SrcGlobalRand, Pos: n.Pos(), Desc: "rand." + n.Sel.Name})
			}
		case *ast.RangeStmt:
			tv, ok := p.Info.Types[n.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !collectThenSorted(p, n, sorts) {
				out = append(out, Source{Kind: SrcMapOrder, Pos: n.For, Desc: "range over map " + types.ExprString(n.X)})
			}
		}
		return true
	})
	return out
}

// isGlobalRand reports whether the selector names a math/rand package-level
// function other than a seeded constructor.
func isGlobalRand(p *Package, sel *ast.SelectorExpr) bool {
	pkg := pkgOf(p, sel.X)
	if pkg == nil || (pkg.Path() != "math/rand" && pkg.Path() != "math/rand/v2") {
		return false
	}
	_, isFunc := p.Info.Uses[sel.Sel].(*types.Func)
	return isFunc && !randConstructors[sel.Sel.Name]
}

// sortCall records one sort.*/slices.* call and the variables its
// arguments reference.
type sortCall struct {
	pos  token.Pos
	objs map[types.Object]bool
}

func sortCalls(p *Package, n ast.Node) []sortCall {
	var out []sortCall
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg := pkgOf(p, sel.X)
		if pkg == nil || (pkg.Path() != "sort" && pkg.Path() != "slices") {
			return true
		}
		sc := sortCall{pos: call.Pos(), objs: make(map[types.Object]bool)}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil {
						sc.objs[obj] = true
					}
				}
				return true
			})
		}
		out = append(out, sc)
		return true
	})
	return out
}

// collectThenSorted reports whether the range body only appends to local
// slices that are all sorted later in the same declaration — the one
// idiom recognised as order-safe without annotation.
func collectThenSorted(p *Package, rng *ast.RangeStmt, sorts []sortCall) bool {
	targets := appendTargets(p, rng.Body.List)
	if targets == nil {
		return false
	}
	for obj := range targets {
		sorted := false
		for _, sc := range sorts {
			if sc.pos > rng.End() && sc.objs[obj] {
				sorted = true
				break
			}
		}
		if !sorted {
			return false
		}
	}
	return true
}

// appendTargets returns the objects appended to when every statement is of
// the form `s = append(s, ...)`, optionally inside if statements (filtered
// collection), `continue` branches, or nested range loops; nil when the
// body does anything else. Nested ranges are safe here because whatever
// order the appends happen in, the sort requirement on every target
// restores a canonical order afterwards.
func appendTargets(p *Package, stmts []ast.Stmt) map[types.Object]bool {
	targets := make(map[types.Object]bool)
	var walk func(list []ast.Stmt) bool
	walk = func(list []ast.Stmt) bool {
		for _, st := range list {
			switch s := st.(type) {
			case *ast.BranchStmt:
				if s.Tok != token.CONTINUE {
					return false
				}
			case *ast.RangeStmt:
				if !walk(s.Body.List) {
					return false
				}
			case *ast.AssignStmt:
				if len(s.Lhs) != 1 || len(s.Rhs) != 1 || s.Tok != token.ASSIGN {
					return false
				}
				lhs, ok := s.Lhs[0].(*ast.Ident)
				if !ok {
					return false
				}
				call, ok := s.Rhs[0].(*ast.CallExpr)
				if !ok {
					return false
				}
				fn, ok := call.Fun.(*ast.Ident)
				if !ok || fn.Name != "append" {
					return false
				}
				if b, ok := p.Info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
					return false
				}
				obj := p.Info.Uses[lhs]
				if obj == nil {
					obj = p.Info.Defs[lhs]
				}
				if obj == nil {
					return false
				}
				targets[obj] = true
			case *ast.IfStmt:
				if s.Init != nil {
					// An if with an init clause (`if _, ok := m[k]; ok`) is
					// still pure filtering; allow it.
					if _, ok := s.Init.(*ast.AssignStmt); !ok {
						return false
					}
				}
				if !walk(s.Body.List) {
					return false
				}
				if s.Else != nil {
					eb, ok := s.Else.(*ast.BlockStmt)
					if !ok || !walk(eb.List) {
						return false
					}
				}
			default:
				return false
			}
		}
		return true
	}
	if !walk(stmts) || len(targets) == 0 {
		return nil
	}
	return targets
}

// BareError is one error value created inside a function body without
// wrapping any declared sentinel, escaping through a return statement.
type BareError struct {
	Pos  token.Pos
	Desc string // "errors.New(...)" or `fmt.Errorf("...")` without %w
}

// isErrsSentinelRef reports whether the expression references a
// package-level error variable (a sentinel that callers can match with
// errors.Is): internal/errs sentinels, route.ErrUnreachable,
// serve.ErrClosed, and their like.
func isSentinelRef(p *Package, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else {
			return false
		}
	}
	obj := p.Info.Uses[id]
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	// Package-level scope, error-typed.
	if v.Parent() != v.Pkg().Scope() {
		return false
	}
	return isErrorType(v.Type())
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
		return true
	}
	// Anything implementing error counts (sentinel types like
	// errs.ErrTimeout's timeoutError).
	iface, ok := t.Underlying().(*types.Interface)
	if ok && iface.NumMethods() == 1 && iface.Method(0).Name() == "Error" {
		return true
	}
	return types.Implements(t, errorIface)
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// errorFacts extracts the error-contract facts of one function body:
// whether it sanitizes (wraps a declared sentinel with %w, so everything
// below it is presumed classified), and the bare error creations that can
// escape through its returns.
func errorFacts(p *Package, fd *ast.FuncDecl) (sanitizes bool, bares []BareError) {
	if fd.Body == nil {
		return false, nil
	}
	// Objects that appear inside return statements: a bare error assigned
	// to one of these escapes.
	returned := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(rn ast.Node) bool {
				if id, ok := rn.(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil {
						returned[obj] = true
					}
				}
				return true
			})
		}
		return true
	})
	// Named error results escape by definition (a bare assignment to one
	// reaches every bare `return`).
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					returned[obj] = true
				}
			}
		}
	}

	// Walk with parents so we know whether a creation sits in a return or
	// feeds a returned variable.
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, wraps, sentinel := classifyErrorCreation(p, call)
		if kind == "" {
			return true
		}
		if wraps && sentinel {
			sanitizes = true
			return true
		}
		if wraps {
			return true // pass-through wrap: the sentinel comes from below
		}
		if bareEscapes(p, call, stack, returned) {
			bares = append(bares, BareError{Pos: call.Pos(), Desc: kind})
		}
		return true
	})
	return sanitizes, bares
}

// classifyErrorCreation recognises errors.New and fmt.Errorf calls:
// kind is "" for anything else; wraps reports a %w verb in a constant
// format; sentinel reports that an argument references a package-level
// error variable (or the call is errs.Classify, the module's boundary
// classifier).
func classifyErrorCreation(p *Package, call *ast.CallExpr) (kind string, wraps, sentinel bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false, false
	}
	switch {
	case fn.Pkg().Path() == "errors" && fn.Name() == "New":
		return "errors.New", false, false
	case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
		wraps = false
		if len(call.Args) > 0 {
			if tv, ok := p.Info.Types[call.Args[0]]; ok && tv.Value != nil {
				wraps = strings.Contains(tv.Value.String(), "%w")
			} else {
				// Dynamic format string: assume it wraps rather than
				// flooding call sites the analyzer cannot see through.
				wraps = true
			}
		}
		for _, arg := range call.Args[1:] {
			if isSentinelRef(p, arg) {
				sentinel = true
			}
		}
		return "fmt.Errorf without %w", wraps, sentinel
	case strings.HasSuffix(fn.Pkg().Path(), "internal/errs") && fn.Name() == "Classify":
		// Classify only reclassifies deadline errors; it is a pass-through
		// for everything else, so it neither creates nor sanitizes.
		return "", false, false
	}
	return "", false, false
}

// bareEscapes reports whether the creation call's value can flow to a
// return: the call is (transitively) inside a ReturnStmt, or it is the
// RHS of an assignment to an object that appears in some return.
func bareEscapes(p *Package, call *ast.CallExpr, stack []ast.Node, returned map[types.Object]bool) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.AssignStmt:
			// Find which LHS corresponds (single-RHS covers the idiom).
			for _, lhs := range parent.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					obj := p.Info.Uses[id]
					if obj == nil {
						obj = p.Info.Defs[id]
					}
					if obj != nil && returned[obj] && isErrorType(obj.Type()) {
						return true
					}
				}
			}
			return false
		case *ast.FuncLit:
			// Created inside a nested literal: its returns are the
			// literal's, not the function's; the literal's enclosing
			// analysis would need its own pass. Treat returns inside the
			// literal as escapes too (conservative for deferred error
			// setters), which the ReturnStmt case above already caught.
			return false
		}
	}
	return false
}
