package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Cache is the on-disk result cache (default location
// <module root>/.lintcache). Each entry is a JSON file named by a
// SHA-256 key over everything that can change its diagnostics: the
// engine version, the Go toolchain version, the build context (GOOS,
// GOARCH, tags), the enabled analyzer names, and the content hash of the package's (or, for the interprocedural
// entry, the whole pattern set's) transitive source closure. Entries
// are therefore immutable: a source edit produces a new key, it never
// mutates an old entry, so a stale hit is impossible and no locking is
// needed for concurrent readers.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// cachedDiag is the serialized form of a Diagnostic. File paths are
// stored relative to the module root so a cache survives the checkout
// being moved (and so entries contain no absolute local paths).
type cachedDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

type cacheEntry struct {
	Engine string       `json:"engine"`
	Diags  []cachedDiag `json:"diags"`
}

func (c *Cache) get(key, moduleRoot string) ([]Diagnostic, bool) {
	data, err := os.ReadFile(filepath.Join(c.dir, key+".json"))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Engine != engineVersion {
		return nil, false
	}
	diags := make([]Diagnostic, 0, len(e.Diags))
	for _, d := range e.Diags {
		var out Diagnostic
		out.Pos.Filename = filepath.Join(moduleRoot, filepath.FromSlash(d.File))
		out.Pos.Line = d.Line
		out.Pos.Column = d.Col
		out.Analyzer = d.Analyzer
		out.Message = d.Message
		diags = append(diags, out)
	}
	return diags, true
}

func (c *Cache) put(key, moduleRoot string, diags []Diagnostic) {
	e := cacheEntry{Engine: engineVersion, Diags: make([]cachedDiag, 0, len(diags))}
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(moduleRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		e.Diags = append(e.Diags, cachedDiag{
			File: file, Line: d.Pos.Line, Col: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	data, err := json.Marshal(e)
	if err != nil {
		return // cache writes are best-effort
	}
	tmp := filepath.Join(c.dir, key+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	// Rename is atomic on POSIX; a failure just means a future cache miss.
	_ = os.Rename(tmp, filepath.Join(c.dir, key+".json"))
}

// cacheKey derives an entry key from the analyzer set and a closure hash.
func cacheKey(kind string, analyzers []*Analyzer, closure string) string {
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	h := sha256.New()
	fmt.Fprintln(h, engineVersion)
	fmt.Fprintln(h, runtime.Version())
	// The build context picks which files make up a package.
	fmt.Fprintln(h, build.Default.GOOS, build.Default.GOARCH, build.Default.BuildTags)
	fmt.Fprintln(h, kind)
	fmt.Fprintln(h, strings.Join(names, ","))
	fmt.Fprintln(h, closure)
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats reports what a cached run did, for the driver's -timing
// output.
type CacheStats struct {
	LocalHits   int
	LocalMisses int
	// ProgramHit / ProgramRan: whether the single interprocedural entry
	// was served from cache or recomputed (both false when no
	// interprocedural analyzer is enabled).
	ProgramHit bool
	ProgramRan bool
}

// RunCached is Run with an on-disk result cache in front of it. Patterns
// are expanded and fingerprinted with an imports-only scan (no type
// checking); each package whose dependency-closure hash has a cache
// entry for the enabled package-local analyzers is served from disk, and
// the interprocedural pass is served whole when the hash of the entire
// pattern closure matches. Only on a miss are packages actually loaded
// and type-checked. With cache == nil it degrades to plain Load + Run.
func RunCached(l *Loader, cache *Cache, patterns []string, analyzers []*Analyzer, stats *Stats) ([]Diagnostic, CacheStats, error) {
	var cs CacheStats
	dirs, err := l.Expand(patterns...)
	if err != nil {
		return nil, cs, err
	}
	local, program := SplitAnalyzers(analyzers)

	if cache == nil {
		pkgs, err := l.LoadDirs(dirs)
		if err != nil {
			return nil, cs, err
		}
		var diags []Diagnostic
		for _, p := range pkgs {
			diags = append(diags, RunLocal(p, local, true, stats)...)
		}
		cs.LocalMisses = len(pkgs)
		if len(program) > 0 {
			diags = append(diags, RunProgram(BuildProgram(pkgs), program, false, stats)...)
			cs.ProgramRan = true
		}
		SortDiagnostics(diags)
		return diags, cs, nil
	}

	scan, err := scanModule(l, dirs)
	if err != nil {
		return nil, cs, err
	}

	var diags []Diagnostic
	var missDirs []string
	localKeys := make(map[string]string, len(dirs))
	for _, d := range dirs {
		key := cacheKey("local", local, scan.closureHash(d))
		localKeys[d] = key
		if got, ok := cache.get(key, l.ModuleRoot); ok {
			diags = append(diags, got...)
			cs.LocalHits++
		} else {
			missDirs = append(missDirs, d)
			cs.LocalMisses++
		}
	}

	// The interprocedural entry covers the whole pattern set, keyed over
	// the union of every package's closure.
	var progKey string
	progMiss := false
	if len(program) > 0 {
		closures := make([]string, 0, len(dirs))
		for _, d := range dirs {
			closures = append(closures, scan.closureHash(d))
		}
		sort.Strings(closures)
		progKey = cacheKey("program", program, strings.Join(closures, "\n"))
		if got, ok := cache.get(progKey, l.ModuleRoot); ok {
			diags = append(diags, got...)
			cs.ProgramHit = true
		} else {
			progMiss = true
		}
	}

	if len(missDirs) > 0 {
		pkgs, err := l.LoadDirs(missDirs)
		if err != nil {
			return nil, cs, err
		}
		for i, p := range pkgs {
			d := RunLocal(p, local, true, stats)
			cache.put(localKeys[missDirs[i]], l.ModuleRoot, d)
			diags = append(diags, d...)
		}
	}
	if progMiss {
		// The program pass needs every pattern package loaded, not just
		// the local misses (the loader memoises, so overlap is free).
		pkgs, err := l.LoadDirs(dirs)
		if err != nil {
			return nil, cs, err
		}
		d := RunProgram(BuildProgram(pkgs), program, false, stats)
		cache.put(progKey, l.ModuleRoot, d)
		diags = append(diags, d...)
		cs.ProgramRan = true
	}
	SortDiagnostics(diags)
	return diags, cs, nil
}
