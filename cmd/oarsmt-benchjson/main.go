// oarsmt-benchjson folds the output of `go test -bench -benchmem` into a
// JSON report of absolute numbers, and gates later runs against it.
// `make bench` uses it to record BENCH_micro.json; `make bench-gate`
// re-runs the same benchmarks and checks them against that record.
//
// Usage:
//
//	oarsmt-benchjson -o BENCH_micro.json bench_micro.txt        # record
//	oarsmt-benchjson -gate -o BENCH_micro.json bench_micro.txt  # verify only, never writes
//
// Per benchmark (sub-benchmarks included) the report keeps the minimum
// ns/op over all its samples in the input (the Makefile takes one per
// pass over the suite), a noise band derived from their spread,
// the allocs/op with the jitter the samples showed, and every work count
// the benchmark reports with b.ReportMetric (a unit ending in "/op", such
// as the route benchmarks' pops/op and relax/op). A run fails the gate
// when a recorded benchmark is missing, its minimum ns/op exceeds the
// recorded minimum by more than the band, its allocs/op exceed the
// recorded value by more than the recorded jitter, or a work count is
// missing or above its recorded value. Work counts do not depend on the
// host, so they have no band: samples of one benchmark must agree, and
// one more heap pop per op fails the gate. Numbers are only
// compared on the machine they were taken on: a run whose GOMAXPROCS or
// `cpu:` line differs from the record fails the gate without comparing.
//
// Recording is itself gated: a same-machine record is only rewritten by a
// run that passes it, so a regression cannot launder itself by
// re-recording. A record from another machine is replaced. A same-machine
// record keeps every entry the run lacks exactly as it was, so
// `make bench BENCH_PKGS=./internal/tensor` re-records only the tensor
// benchmarks and cannot narrow the bands of the others; the gate still
// reports an absent entry as MISSING.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's recorded numbers.
type Entry struct {
	Name string `json:"name"`
	// NsPerOp is the minimum ns/op over the samples: the fastest run has
	// the least scheduler and cache interference, so it is the most
	// reproducible statistic to gate on.
	NsPerOp float64 `json:"ns_per_op"`
	// Band is the relative slack the gate allows above NsPerOp.
	Band float64 `json:"band"`
	// AllocsPerOp is the largest allocs/op any sample reported, and
	// AllocJitter how far the samples spread below it.
	AllocsPerOp int64 `json:"allocs_per_op"`
	AllocJitter int64 `json:"alloc_jitter,omitempty"`
	// Work holds the deterministic per-op counts the benchmark reports,
	// by unit.
	Work map[string]float64 `json:"work,omitempty"`
}

// Report is the whole BENCH_micro.json document.
type Report struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("oarsmt-benchjson: ")

	out := flag.String("o", "BENCH_micro.json", "report to record into, or to gate against with -gate")
	gateOnly := flag.Bool("gate", false, "check the run against the report instead of recording it")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: oarsmt-benchjson [-gate] [-o report.json] bench-output.txt")
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := parse(f)
	f.Close()
	if err != nil {
		log.Fatalf("%s: %v", flag.Arg(0), err)
	}

	if *gateOnly {
		err = gate(*out, rep)
	} else {
		err = record(*out, rep)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// gate checks rep against the report at path and never writes.
func gate(path string, rep Report) error {
	old, err := load(path)
	if err != nil {
		return err
	}
	if old == nil {
		return fmt.Errorf("%s does not exist; run make bench first", path)
	}
	if err := sameMachine(*old, rep); err != nil {
		return err
	}
	if bad := regressions(*old, rep); len(bad) > 0 {
		return fmt.Errorf("%s\n%d benchmark(s) regressed against %s", strings.Join(bad, "\n"), len(bad), path)
	}
	log.Printf("gate ok: %d benchmarks within their recorded bands (GOMAXPROCS=%d)", len(old.Benchmarks), rep.GoMaxProcs)
	return nil
}

// record writes rep to path, unless path holds a record from this machine
// that rep fails. Entries of a same-machine record that rep lacks are
// carried over unchanged.
func record(path string, rep Report) error {
	old, err := load(path)
	if err != nil {
		return err
	}
	if old != nil {
		if err := sameMachine(*old, rep); err != nil {
			log.Printf("replacing the record from another machine: %v", err)
		} else {
			rep = carryOver(*old, rep)
			if bad := regressions(*old, rep); len(bad) > 0 {
				return fmt.Errorf("%s\n%d benchmark(s) regressed; not rewriting %s", strings.Join(bad, "\n"), len(bad), path)
			}
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s (%d benchmarks, GOMAXPROCS=%d)", path, len(rep.Benchmarks), rep.GoMaxProcs)
	return nil
}

// carryOver returns rep with every entry of old that rep lacks appended
// unchanged, in name order.
func carryOver(old, rep Report) Report {
	have := map[string]bool{}
	for _, e := range rep.Benchmarks {
		have[e.Name] = true
	}
	merged := append([]Entry(nil), rep.Benchmarks...)
	for _, o := range old.Benchmarks {
		if !have[o.Name] {
			merged = append(merged, o)
		}
	}
	if n := len(merged) - len(rep.Benchmarks); n > 0 {
		log.Printf("carrying over %d recorded benchmark(s) absent from this run", n)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Name < merged[j].Name })
	rep.Benchmarks = merged
	return rep
}

// load reads a report; a missing file is (nil, nil).
func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: not a bench report: %v", path, err)
	}
	return &rep, nil
}

// sameMachine refuses to compare numbers taken on different machines.
func sameMachine(old, rep Report) error {
	if old.GoMaxProcs == rep.GoMaxProcs && old.CPU == rep.CPU {
		return nil
	}
	return fmt.Errorf("the record was taken at GOMAXPROCS=%d on %q, this run at GOMAXPROCS=%d on %q; numbers from different machines are not compared, run make bench to re-record",
		old.GoMaxProcs, old.CPU, rep.GoMaxProcs, rep.CPU)
}

// regressions lists every recorded benchmark that rep lacks, runs slower
// than its band allows, or allocates more than its jitter allows.
func regressions(old, rep Report) []string {
	got := map[string]Entry{}
	for _, e := range rep.Benchmarks {
		got[e.Name] = e
	}
	var bad []string
	for _, o := range old.Benchmarks {
		e, ok := got[o.Name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("MISSING %s: recorded but not in this run", o.Name))
			continue
		case e.NsPerOp > o.NsPerOp*(1+o.Band):
			bad = append(bad, fmt.Sprintf("SLOWER %s: %.0f ns/op, recorded %.0f ns/op + %.0f%% band",
				o.Name, e.NsPerOp, o.NsPerOp, 100*o.Band))
		}
		if lo := e.AllocsPerOp - e.AllocJitter; lo > o.AllocsPerOp+o.AllocJitter {
			bad = append(bad, fmt.Sprintf("ALLOCS %s: %d allocs/op, recorded %d ± %d",
				o.Name, lo, o.AllocsPerOp, o.AllocJitter))
		}
		for _, unit := range sortedKeys(o.Work) {
			switch got, ok := e.Work[unit]; {
			case !ok:
				bad = append(bad, fmt.Sprintf("WORK %s: no %s in this run, recorded %.0f", o.Name, unit, o.Work[unit]))
			case got > o.Work[unit]:
				bad = append(bad, fmt.Sprintf("WORK %s: %.0f %s, recorded %.0f", o.Name, got, unit, o.Work[unit]))
			}
		}
	}
	return bad
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// The noise band is bandScale times the relative spread of a benchmark's
// samples, (max-min)/min, and never below minBand: the gate's shorter run
// sees at most about the spread the record saw, and minBand covers
// kernels whose samples happen to agree.
const (
	minBand   = 0.10
	bandScale = 2
)

// band derives a benchmark's noise band from the fastest and slowest of
// its ns/op samples, rounded up to whole percent.
func band(lo, hi float64) float64 {
	return math.Ceil(100*math.Max(minBand, bandScale*(hi-lo)/lo)) / 100
}

// parse reads `go test -bench` output into a report. The -N GOMAXPROCS
// suffix (absent at GOMAXPROCS=1) is stripped from each name and recorded
// once; MB/s and B/op columns are ignored, and every other "/op" column is
// a work count that must read the same in every sample.
func parse(r io.Reader) (Report, error) {
	rep := Report{GoVersion: runtime.Version()}
	type span struct {
		nsLo, nsHi       float64
		allocLo, allocHi int64
		work             map[string]float64
	}
	seen := map[string]*span{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok && rep.CPU == "" {
			rep.CPU = strings.TrimSpace(cpu)
		}
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			return Report{}, fmt.Errorf("the benchmark run failed: %s", line)
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name, procs := fields[0], 1
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], n
			}
		}
		ns, allocs := -1.0, int64(0)
		var work map[string]float64
		for i := 2; i+1 < len(fields); i++ {
			var err error
			switch unit := fields[i+1]; unit {
			case "ns/op":
				ns, err = strconv.ParseFloat(fields[i], 64)
			case "allocs/op":
				allocs, err = strconv.ParseInt(fields[i], 10, 64)
			case "B/op":
			default:
				if !strings.HasSuffix(unit, "/op") {
					continue
				}
				var v float64
				if v, err = strconv.ParseFloat(fields[i], 64); err == nil {
					if work == nil {
						work = map[string]float64{}
					}
					work[unit] = v
				}
			}
			if err != nil {
				return Report{}, fmt.Errorf("%s: %v", name, err)
			}
		}
		if ns < 0 {
			continue
		}
		if rep.GoMaxProcs != 0 && procs != rep.GoMaxProcs {
			return Report{}, fmt.Errorf("%s ran at GOMAXPROCS=%d, earlier benchmarks at %d", name, procs, rep.GoMaxProcs)
		}
		rep.GoMaxProcs = procs
		if s := seen[name]; s != nil {
			s.nsLo, s.nsHi = math.Min(s.nsLo, ns), math.Max(s.nsHi, ns)
			s.allocLo, s.allocHi = min(s.allocLo, allocs), max(s.allocHi, allocs)
			if !maps.Equal(s.work, work) {
				return Report{}, fmt.Errorf("%s: work counts %v in one sample and %v in another; they must be deterministic", name, s.work, work)
			}
		} else {
			seen[name] = &span{ns, ns, allocs, allocs, work}
		}
	}
	if err := sc.Err(); err != nil {
		return Report{}, err
	}
	if len(seen) == 0 {
		return Report{}, errors.New("no benchmark lines found")
	}
	for name, s := range seen {
		rep.Benchmarks = append(rep.Benchmarks, Entry{
			Name:        name,
			NsPerOp:     s.nsLo,
			Band:        band(s.nsLo, s.nsHi),
			AllocsPerOp: s.allocHi,
			AllocJitter: s.allocHi - s.allocLo,
			Work:        s.work,
		})
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool { return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name })
	return rep, nil
}
