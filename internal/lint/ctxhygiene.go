package lint

import (
	"go/ast"
	"go/token"
)

// AnalyzerCtxHygiene flags context.Background() and context.TODO() inside
// library functions that already receive a context.Context parameter:
// minting a fresh root context there severs the caller's deadline and
// cancellation, which is how a cancelled serving request keeps burning CPU
// in a Dijkstra expansion. Executables (package main) own their root
// context and are exempt; functions without a ctx parameter are fine
// because no caller context exists to drop.
var AnalyzerCtxHygiene = &Analyzer{
	Name: "ctxhygiene",
	Doc:  "context.Background/TODO in functions that already receive a ctx",
	Run:  runCtxHygiene,
}

func runCtxHygiene(p *Package, report func(pos token.Pos, format string, args ...any)) {
	if p.Name == "main" {
		return
	}
	eachFunc(p, func(_ *ast.File, fd *ast.FuncDecl) {
		if !hasCtxParam(p, fd.Type) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if name, ok := selTo(p, sel, "context"); ok && (name == "Background" || name == "TODO") {
				report(sel.Pos(), "context.%s in a function that already receives a ctx: this drops the caller's deadline and cancellation; derive from the ctx parameter instead", name)
			}
			return true
		})
	})
}
