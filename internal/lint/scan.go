package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The result cache must be invalidated by anything that can change a
// diagnostic without changing the analyzed source: bump engineVersion
// whenever analyzer logic, the annotation grammar, or the diagnostic
// format changes. The per-entry key additionally folds in the Go
// toolchain version, the build context and the enabled analyzer names, so
// those need no manual bump.
const engineVersion = "oarsmt-lint-2"

// pkgScan is the cheap (parse-imports-only, no type checking) fingerprint
// of one package directory.
type pkgScan struct {
	Dir     string
	Path    string   // import path
	Imports []string // module-internal imports, sorted
	selfSum string   // hash over this package's own file names+contents

	closure string // memoised closureHash result
}

// moduleScan fingerprints a set of packages and their transitive
// module-internal dependencies without type-checking anything. It exists
// so a warm `make lint` can prove the cache is still valid in
// milliseconds instead of re-typechecking the world.
type moduleScan struct {
	loader *Loader
	pkgs   map[string]*pkgScan // by directory
}

// scanModule fingerprints every directory in dirs plus everything they
// transitively import within the module.
func scanModule(l *Loader, dirs []string) (*moduleScan, error) {
	ms := &moduleScan{loader: l, pkgs: make(map[string]*pkgScan)}
	for _, d := range dirs {
		if err := ms.scanDir(d); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

func (ms *moduleScan) scanDir(dir string) error {
	if _, ok := ms.pkgs[dir]; ok {
		return nil
	}
	ps := &pkgScan{Dir: dir, Path: ms.loader.importPathFor(dir)}
	ms.pkgs[dir] = ps // insert before recursing; import cycles fail at load time, not here

	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	h := sha256.New()
	imports := map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range ents {
		if !isPkgSource(dir, e) {
			continue
		}
		name := e.Name()
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// ReadDir returns sorted entries, so the hash is order-stable.
		fmt.Fprintf(h, "%s %d\n", name, len(data))
		h.Write(data)
		f, err := parser.ParseFile(fset, path, data, parser.ImportsOnly)
		if err != nil {
			// A syntactically broken file still invalidates the cache via
			// its content hash; the real load will report the error.
			continue
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == ms.loader.ModulePath || strings.HasPrefix(p, ms.loader.ModulePath+"/") {
				imports[p] = true
			}
		}
	}
	ps.selfSum = hex.EncodeToString(h.Sum(nil))
	for p := range imports {
		ps.Imports = append(ps.Imports, p)
	}
	sort.Strings(ps.Imports)
	for _, p := range ps.Imports {
		rel := strings.TrimPrefix(strings.TrimPrefix(p, ms.loader.ModulePath), "/")
		if err := ms.scanDir(filepath.Join(ms.loader.ModuleRoot, filepath.FromSlash(rel))); err != nil {
			return err
		}
	}
	return nil
}

// closureHash is the content hash of the package and its entire
// module-internal dependency closure: if it is unchanged, no source that
// can influence the package's analysis has changed. (Standard-library
// changes are covered by the Go version folded into cache keys.)
func (ms *moduleScan) closureHash(dir string) string {
	ps := ms.pkgs[dir]
	if ps.closure != "" {
		return ps.closure
	}
	// Collect the closure's self-hashes in deterministic import-path order
	// rather than hashing recursively, so diamond dependencies contribute
	// once and cycles (which the loader rejects later anyway) terminate.
	seen := map[string]bool{}
	var sums []string
	var walk func(d string)
	walk = func(d string) {
		p := ms.pkgs[d]
		if p == nil || seen[p.Path] {
			return
		}
		seen[p.Path] = true
		sums = append(sums, p.Path+" "+p.selfSum)
		for _, imp := range p.Imports {
			rel := strings.TrimPrefix(strings.TrimPrefix(imp, ms.loader.ModulePath), "/")
			walk(filepath.Join(ms.loader.ModuleRoot, filepath.FromSlash(rel)))
		}
	}
	walk(dir)
	sort.Strings(sums)
	h := sha256.New()
	for _, s := range sums {
		fmt.Fprintln(h, s)
	}
	ps.closure = hex.EncodeToString(h.Sum(nil))
	return ps.closure
}
