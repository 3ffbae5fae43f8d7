package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// stamp identifies a run: the machine's parallelism, the toolchain, the
// code measured and the workload's parameters.
type stamp struct {
	Workload   string `json:"workload"`
	Why        string `json:"why"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// GitCommit is the checkout's commit, "unknown" outside a git work
	// tree; SourceSHA256 hashes the Go sources, go.mod files and embedded
	// models under the root either way.
	GitCommit    string         `json:"git_commit"`
	SourceSHA256 string         `json:"source_sha256"`
	Params       map[string]any `json:"params"`
}

func newStamp(o options, w workload) stamp {
	s := stamp{
		Workload: w.name, Why: w.why, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GitCommit: o.commit, SourceSHA256: sourceDigest(o.root),
		Params: map[string]any{
			"workers": numWorkers, "clients": numClients, "connections": numClients,
			"loop": "closed", "miss_every": w.missEvery, "disk_store": w.store,
			"setup_repeats": setupRepeats, "miss_check_every": w.sampleEvery, "miss_check_max": w.sampleN,
		},
	}
	if w.rate > 0 {
		s.Params["loop"] = "open"
		s.Params["rate_rps"] = w.rate
		s.Params["warmup_s"] = warmOpenSeconds
	}
	if w.pool {
		s.Params["pool"] = map[string]any{"layouts": poolSize, "orientations": 16, "spec": poolSpec}
	}
	if w.missEvery > 0 {
		s.Params["stream_spec"] = streamSpec
	}
	return s
}

// sourceDigest hashes every .go, .mod and .gob file under root (skipping
// dot-directories such as .git and .bench_build), path and content, in
// walk order. It identifies the code measured where no VCS is at hand.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".gob":
		default:
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// maxRSSMB is the process's peak resident set (VmHWM), in MB.
func maxRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
