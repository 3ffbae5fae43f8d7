package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole-program view the interprocedural analyzers run
// over: every declared function of the analyzed packages, the static call
// graph between them, and the per-function summaries propagated to a
// fixpoint. Calls through function values and interface methods are not
// resolved (the engine is a static over/under-approximation, not a points-to
// analysis); function literals are attributed to their enclosing
// declaration, which covers the repository's parallel.For(func(){...})
// idiom.
type Program struct {
	Pkgs []*Package
	// Funcs maps every declared function with a body to its info node.
	Funcs map[*types.Func]*FuncInfo
	// order holds the functions in deterministic (package path, position)
	// order, so every traversal of the graph is reproducible.
	order []*FuncInfo
	// sources holds every nondeterminism source of the packages, in
	// function bodies and package-level declarations alike, annotated
	// ones included.
	sources []Source
	byFile  map[string]*Package
}

// FuncInfo is one call-graph node.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls lists the statically resolved callees in source order,
	// including calls spawned via go statements (a goroutine started under
	// a deterministic root still taints it).
	Calls []Call
	// Summary is filled by computeSummaries.
	Summary *Summary
}

// Call is one resolved call site.
type Call struct {
	Callee *types.Func
	Pos    token.Pos
}

// BuildProgram constructs the call graph and summaries over the packages.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:   pkgs,
		Funcs:  make(map[*types.Func]*FuncInfo),
		byFile: make(map[string]*Package),
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			prog.byFile[p.Fset.Position(f.Pos()).Filename] = p
		}
		eachFunc(p, func(_ *ast.File, fd *ast.FuncDecl) {
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				return
			}
			fi := &FuncInfo{Fn: fn, Decl: fd, Pkg: p}
			prog.Funcs[fn] = fi
			prog.order = append(prog.order, fi)
		})
	}
	sort.Slice(prog.order, func(i, j int) bool {
		a, b := prog.order[i], prog.order[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	for _, fi := range prog.order {
		fi.Calls = collectCalls(fi.Pkg, fi.Decl)
	}
	computeSummaries(prog)
	return prog
}

// PackageOf resolves the package owning a position's file, used to apply
// suppressions to findings that program analyzers report in any package.
func (prog *Program) PackageOf(fset *token.FileSet, pos token.Pos) *Package {
	return prog.byFile[fset.Position(pos).Filename]
}

// Functions returns the call-graph nodes in deterministic order.
func (prog *Program) Functions() []*FuncInfo { return prog.order }

// collectCalls resolves the direct calls of one declaration, including
// those inside nested function literals and go/defer statements.
func collectCalls(p *Package, fd *ast.FuncDecl) []Call {
	var out []Call
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := calleeOf(p, call); callee != nil {
			out = append(out, Call{Callee: callee, Pos: call.Pos()})
		}
		return true
	})
	return out
}

// calleeOf statically resolves a call expression to the called function:
// plain calls, package-qualified calls, and method calls on concrete
// receivers. Function values and interface dispatch return nil.
func calleeOf(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// FuncDisplayName renders a function as "pkg.(*Recv).Name" for
// diagnostics, with the package shortened to its base name.
func FuncDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		recv := types.TypeString(t, func(p *types.Package) string { return "" })
		recv = strings.TrimPrefix(recv, ".")
		name = "(" + recv + ")." + name
	}
	if fn.Pkg() != nil {
		parts := strings.Split(fn.Pkg().Path(), "/")
		name = parts[len(parts)-1] + "." + name
	}
	return name
}
