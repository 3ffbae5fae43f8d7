package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// corpusCases maps each golden corpus to the analyzers run over it. The
// annotations corpus uses detmap as its carrier analyzer because the
// //oarsmt:allow machinery itself is analyzer-agnostic. Single-dir
// corpora load under the synthetic "testdata/<name>" import path;
// multi-dir corpora (the interprocedural analyzers need a cross-package
// call graph) load under their real module import paths so the corpus
// packages can import each other.
var corpusCases = []struct {
	name      string
	dirs      []string // corpus dirs under testdata/src; first is primary
	analyzers []string
}{
	{"detmap", []string{"detmap"}, []string{"detmap"}},
	{"nowallclock", []string{"nowallclock"}, []string{"nowallclock"}},
	{"seededrand", []string{"seededrand"}, []string{"seededrand"}},
	{"rawgo", []string{"rawgo"}, []string{"rawgo"}},
	{"floatreduce", []string{"floatreduce"}, []string{"floatreduce"}},
	{"ctxhygiene", []string{"ctxhygiene"}, []string{"ctxhygiene"}},
	{"obsnames", []string{"obsnames"}, []string{"obsnames"}},
	{"annotations", []string{"annotations"}, []string{"detmap"}},
	{"goroleak", []string{"goroleak"}, []string{"goroleak"}},
	{"spanend", []string{"spanend"}, []string{"spanend"}},
	{"dettaint", []string{"dettaint", "dettaintdep"}, []string{"dettaint"}},
	{"errwrap", []string{"errwrap", "errwrapdep"}, []string{"errwrap"}},
}

// loadCorpus loads one corpus case: a single directory keeps the legacy
// synthetic import path, while multi-directory corpora go through the
// module loader so cross-corpus imports resolve.
func loadCorpus(t *testing.T, loader *Loader, dirs []string) []*Package {
	t.Helper()
	if len(dirs) == 1 {
		rel := filepath.Join("testdata", "src", dirs[0])
		pkg, err := loader.LoadCorpus(rel, dirs[0])
		if err != nil {
			t.Fatal(err)
		}
		return []*Package{pkg}
	}
	var pats []string
	for _, d := range dirs {
		pats = append(pats, filepath.Join("testdata", "src", d))
	}
	pkgs, err := loader.Load(pats...)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// parseWants returns the expected-diagnostic regexps of every corpus file,
// keyed by filename and line.
func parseWants(t *testing.T, dir string) map[string]map[int][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string]map[int][]*regexp.Regexp)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		perLine := make(map[int][]*regexp.Regexp)
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				perLine[i+1] = append(perLine[i+1], re)
			}
		}
		wants[path] = perLine
	}
	return wants
}

func TestGoldenCorpus(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range corpusCases {
		t.Run(tc.name, func(t *testing.T) {
			pkgs := loadCorpus(t, loader, tc.dirs)
			for _, pkg := range pkgs {
				if len(pkg.TypeErrors) > 0 {
					t.Fatalf("corpus must type-check cleanly, got: %v", pkg.TypeErrors)
				}
			}
			var analyzers []*Analyzer
			for _, name := range tc.analyzers {
				a := ByName(name)
				if a == nil {
					t.Fatalf("unknown analyzer %q", name)
				}
				analyzers = append(analyzers, a)
			}
			diags := Run(pkgs, analyzers, nil)

			wants := make(map[string]map[int][]*regexp.Regexp)
			for _, d := range tc.dirs {
				rel := filepath.Join("internal", "lint", "testdata", "src", d)
				for file, perLine := range parseWants(t, filepath.Join(loader.ModuleRoot, rel)) {
					wants[file] = perLine
				}
			}
			matched := make(map[*regexp.Regexp]bool)
			for _, d := range diags {
				res := "unexpected"
				for _, re := range wants[d.Pos.Filename][d.Pos.Line] {
					if !matched[re] && re.MatchString(d.Message) {
						matched[re] = true
						res = "ok"
						break
					}
				}
				if res != "ok" {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for file, perLine := range wants {
				for line, res := range perLine {
					for _, re := range res {
						if !matched[re] {
							t.Errorf("%s:%d: missing expected diagnostic matching %q", file, line, re)
						}
					}
				}
			}
		})
	}
}

// TestCorpusPositions pins the exact positions of one seeded violation per
// analyzer, so a regression that reports the right message at the wrong
// place cannot slip through the regexp matching above.
func TestCorpusPositions(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range corpusCases {
		if tc.name == "annotations" {
			continue
		}
		pkgs := loadCorpus(t, loader, tc.dirs)
		diags := Run(pkgs, []*Analyzer{ByName(tc.name)}, nil)
		if len(diags) == 0 {
			t.Errorf("%s: corpus produced no diagnostics", tc.name)
			continue
		}
		for _, d := range diags {
			if d.Analyzer != tc.name {
				t.Errorf("%s: diagnostic from wrong analyzer: %s", tc.name, d)
			}
			inCorpus := false
			for _, dir := range tc.dirs {
				if strings.HasSuffix(filepath.Dir(d.Pos.Filename), dir) {
					inCorpus = true
				}
			}
			if d.Pos.Line <= 0 || d.Pos.Column <= 0 || !inCorpus {
				t.Errorf("%s: diagnostic with bad position: %s", tc.name, d)
			}
		}
	}
}

// TestRepoLintClean is the self-test the tentpole demands: the repository
// must satisfy its own determinism contract, so every future PR inherits
// it as a regression test. Every package must also type-check cleanly:
// the analyzers read type information, and a half-typed package would
// pass them silently.
func TestRepoLintClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(filepath.Join(loader.ModuleRoot, "..."))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader is missing module packages", len(pkgs))
	}
	for _, p := range pkgs {
		for _, err := range p.TypeErrors {
			t.Errorf("%s does not type-check: %v", p.Path, err)
		}
	}
	diags := Run(pkgs, Analyzers(), nil)
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestLoaderBuildConstraints loads a package whose files declare the same
// function under mutually exclusive //go:build lines and a _plan9 file-name
// suffix: only the files the default build context selects may be
// type-checked together.
func TestLoaderBuildConstraints(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadCorpus(filepath.Join("testdata", "src", "buildtags"), "buildtags")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	var got []string
	for _, f := range pkg.Files {
		got = append(got, filepath.Base(pkg.Fset.File(f.Pos()).Name()))
	}
	if want := "kernel_off.go use.go"; strings.Join(got, " ") != want {
		t.Fatalf("loaded files %v, want %s", got, want)
	}
}

// TestAnalyzerNames guards the driver's -enable/-disable contract: every
// analyzer resolves by its documented name and the suite order is stable.
func TestAnalyzerNames(t *testing.T) {
	want := []string{
		"detmap", "nowallclock", "seededrand", "rawgo", "floatreduce",
		"ctxhygiene", "obsnames", "goroleak", "spanend", "dettaint", "errwrap",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName accepted an unknown analyzer")
	}
}

// TestDiagnosticString pins the file:line:col rendering the Makefile and
// editors rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "detmap", Message: "boom"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "x.go:3:7: [detmap] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestAnnotationGrammar exercises collectAnnotations directly on a
// synthetic package, independent of the corpus.
func TestAnnotationGrammar(t *testing.T) {
	dir := t.TempDir()
	src := `package scratch

//oarsmt:allow detmap(good reason)
var a int

//oarsmt:allow rawgo(another fine reason) trailing prose is ignored
var b int
`
	if err := os.WriteFile(filepath.Join(dir, "scratch.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadCorpus(dir, "scratch")
	if err != nil {
		t.Fatal(err)
	}
	anns, errs := collectAnnotations(pkg)
	if len(errs) != 0 {
		t.Fatalf("unexpected grammar errors: %v", errs)
	}
	if len(anns) != 2 {
		t.Fatalf("got %d annotations, want 2", len(anns))
	}
	if anns[0].analyzer != "detmap" || anns[0].reason != "good reason" {
		t.Errorf("first annotation parsed as %q(%q)", anns[0].analyzer, anns[0].reason)
	}
	if anns[1].analyzer != "rawgo" || anns[1].reason != "another fine reason" {
		t.Errorf("second annotation parsed as %q(%q)", anns[1].analyzer, anns[1].reason)
	}
}
