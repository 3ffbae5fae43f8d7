package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of the enclosing module without
// golang.org/x/tools: module-internal imports are resolved from source by
// the loader itself (memoised, dependency-first), and standard-library
// imports are delegated to go/importer's source importer, which works
// offline against GOROOT/src.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	// dir is the absolute directory the loader was made for. Relative
	// patterns resolve against it, as the go tool resolves them against
	// the working directory.
	dir     string
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

// NewLoader locates the module containing dir (by walking up to go.mod)
// and returns a loader for that module that resolves relative patterns
// against dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		dir:        abs,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// expand resolves the patterns ("./...", "dir/...", or plain directories,
// relative to the loader's dir) to the matched package directories in
// deterministic sorted order.
func (l *Loader) expand(patterns []string) ([]string, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec = true
			pat = rest
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		base := l.abs(pat)
		if !rec {
			dirs[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			// testdata and hidden directories are invisible to the go
			// tool, so the linter skips them too (the lint corpus contains
			// deliberate violations).
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				dirs[path] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var sorted []string
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	return sorted, nil
}

// Load expands the patterns and returns the matched packages in
// deterministic path order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, d := range dirs {
		p, err := l.loadDir(d, l.importPathFor(d))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// LoadCorpus loads a single testdata directory as the synthetic import
// path "testdata/<name>", used by the golden-corpus tests.
func (l *Loader) LoadCorpus(dir, name string) (*Package, error) {
	return l.loadDir(l.abs(dir), "testdata/"+name)
}

// abs resolves a path against the loader's dir.
func (l *Loader) abs(path string) string {
	if filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(l.dir, path)
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// isPkgSource reports whether the directory entry e of dir is a non-test
// Go file of the package as the go tool builds it for the default build
// context: //go:build lines and _GOOS/_GOARCH file-name suffixes count,
// so tag-exclusive files (an assembly kernel's Go side and its pure-Go
// fallback) never meet in one type-check.
func isPkgSource(dir string, e os.DirEntry) bool {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if isPkgSource(dir, e) {
			return true
		}
	}
	return false
}

// loadDir parses and type-checks the non-test files of one directory that
// the default build context selects.
// Results are memoised by import path, so diamond imports type-check once.
func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if isPkgSource(dir, e) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}

	p := &Package{
		Path:  importPath,
		Name:  files[0].Name.Name,
		Fset:  l.Fset,
		Files: files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
	}
	cfg := &types.Config{
		Importer: (*loaderImporter)(l),
		Error: func(err error) {
			p.TypeErrors = append(p.TypeErrors, err)
		},
	}
	tpkg, err := cfg.Check(importPath, l.Fset, files, p.Info)
	if tpkg == nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	p.Types = tpkg
	l.pkgs[importPath] = p
	return p, nil
}

// loaderImporter routes module-internal imports back through the loader
// and everything else (the standard library) to the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
		p, err := l.loadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}
