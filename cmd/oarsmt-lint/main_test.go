package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a two-package module (b imports a) whose a/a.go
// carries the given function body, and returns its root.
func writeModule(t *testing.T, stampBody string) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module scratchmod\n\ngo 1.22\n",
		"a/a.go": "package a\n\nimport \"time\"\n\nfunc Stamp(t time.Time) int64 { " + stampBody + " }\n",
		"b/b.go": "package b\n\nimport (\n\t\"time\"\n\n\t\"scratchmod/a\"\n)\n\nfunc Twice(t time.Time) int64 { return a.Stamp(t) * 2 }\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runLint(t *testing.T, root string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, root, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestExitCodes drives the command over a scratch module: a clean module
// exits 0, one wall-clock read exits 1 and is the single -json finding
// (with a module-relative path), and an unknown analyzer is a usage error.
func TestExitCodes(t *testing.T) {
	clean := writeModule(t, "return t.UnixNano()")
	if code, out, errOut := runLint(t, clean); code != 0 || out != "" {
		t.Fatalf("clean module: exit %d, stdout %q, stderr %q; want exit 0 and no output", code, out, errOut)
	}
	if code, out, _ := runLint(t, clean, "-json"); code != 0 || strings.TrimSpace(out) != "[]" {
		t.Fatalf("clean module -json: exit %d, stdout %q; want exit 0 and []", code, out)
	}

	dirty := writeModule(t, "return time.Now().UnixNano()")
	code, out, errOut := runLint(t, dirty, "-json", "./...")
	if code != 1 {
		t.Fatalf("dirty module: exit %d, stderr %q; want 1", code, errOut)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("-json output %q: %v", out, err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings %+v, want 1", len(diags), diags)
	}
	if d := diags[0]; d.File != "a/a.go" || d.Line != 5 || d.Analyzer != "nowallclock" {
		t.Errorf("finding = %+v, want nowallclock at a/a.go:5", d)
	}

	// Relative patterns resolve against the directory the command runs
	// in, as go vet's do: "." in a/ is package a, not the module root.
	if code, out, errOut := runLint(t, filepath.Join(dirty, "a"), "-json", "."); code != 1 || !strings.Contains(out, `"a/a.go"`) {
		t.Errorf("dirty module, . in a/: exit %d, stdout %q, stderr %q; want 1 with the a/a.go finding", code, out, errOut)
	}
	if code, out, errOut := runLint(t, filepath.Join(dirty, "b"), "."); code != 0 || out != "" {
		t.Errorf("dirty module, . in b/: exit %d, stdout %q, stderr %q; want a clean exit 0", code, out, errOut)
	}
	if code, _, errOut := runLint(t, filepath.Join(dirty, "b"), "../a"); code != 1 {
		t.Errorf("dirty module, ../a in b/: exit %d, stderr %q; want 1", code, errOut)
	}

	if code, _, errOut := runLint(t, clean, "-enable", "nosuch"); code != 2 || !strings.Contains(errOut, `"nosuch"`) {
		t.Errorf("unknown -enable: exit %d, stderr %q; want 2 naming the analyzer", code, errOut)
	}
}
