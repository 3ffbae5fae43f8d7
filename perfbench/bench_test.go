package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The benchmark's self-test: short runs of every workload must emit every
// metric BENCHMARK.json names, with its unit, and a skewed reference must
// be caught by the answer check. Run it from this directory:
//
//	go test ./...
//
// The full set takes about a minute; -short keeps only the quick runs.

type spec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs the benchmark in-process and decodes its last line.
func runBench(t *testing.T, args ...string) (result, report) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "--out", t.TempDir(), "--root", "..")
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("run %v printed %d lines, want a report and a result", args, len(lines))
	}
	var res result
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
		t.Fatalf("line before the last is not a report: %v", err)
	}
	return res, rep
}

// TestWorkloadsMatchSpec: every workload BENCHMARK.json gates on is one
// the benchmark runs, for the stated reason. hit-hot is runnable by hand
// but not gated on (see CHANGES.md).
func TestWorkloadsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	for _, sw := range s.Workloads {
		w, err := lookupWorkload(sw.Name)
		if err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", sw.Name, err)
		} else if w.why != sw.Why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the benchmark %q", sw.Name, sw.Why, w.why)
		}
	}
	if len(s.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the benchmark measures %d", len(s.PerLayer), len(layerUnits))
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	v := make([]float64, 999)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if _, err := percentile(v, 0.99); err == nil {
		t.Error("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	q, err := percentile(append(v, 1000), 0.99)
	if err != nil || q.Value != 990 || q.Beyond != 10 || q.Samples != 1000 {
		t.Errorf("p99 of 1..1000 = %+v, %v; want 990 with 10 beyond", q, err)
	}
	if q, _ := percentile(v[:9], 0.5); q.Value != 5 {
		t.Errorf("p50 of 1..9 = %v, want 5", q.Value)
	}
}

// TestEveryMetricEmitted runs each workload in both modes, long enough
// that its p99 has ten samples beyond it.
func TestEveryMetricEmitted(t *testing.T) {
	s := loadSpec(t)
	seconds := map[string]int{"hit-hot": 4, "miss-cold": 20, "mixed-open": 6}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			if testing.Short() && w.name != "hit-hot" {
				continue
			}
			t.Run(w.name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				secs := seconds[w.name]
				if trace == 1 {
					secs = max(secs/4, 2) // traced runs refuse nothing
				}
				res, rep := runBench(t, "--workload", w.name, "--seed", "3",
					"--seconds", strconv.Itoa(secs), "--trace", strconv.Itoa(trace))
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := map[string]string{}
				if trace == 0 {
					for _, m := range s.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range s.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", name, m.Unit, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if rep.Stamp.GOMAXPROCS < 1 || rep.Stamp.NumCPU < 1 || rep.Stamp.GoVersion == "" || rep.Stamp.Seed != 3 {
					t.Errorf("incomplete stamp %+v", rep.Stamp)
				}
				if trace == 0 && res.Metrics["success_rate"].Value != 1 {
					t.Errorf("success_rate = %v on a correct program", res.Metrics["success_rate"].Value)
				}
			})
		}
	}
}

// TestWrongReferenceRaisesErrorRate skews every reference cost: the
// program's answers are then "wrong", and the check must say so.
func TestWrongReferenceRaisesErrorRate(t *testing.T) {
	res, rep := runBench(t, "--workload", "hit-hot", "--seed", "5", "--seconds", "4", "--wrong-reference")
	if res.Correct || res.Failed == 0 || rep.Untraced.ErrorRate <= 0 || res.Metrics["success_rate"].Value >= 1 {
		t.Errorf("skewed references not caught: correct=%v failed=%d error_rate=%v success_rate=%v",
			res.Correct, res.Failed, rep.Untraced.ErrorRate, res.Metrics["success_rate"].Value)
	}
	if testing.Short() {
		return
	}
	// Misses are checked bit for bit on a sample; a traced run refuses no
	// percentile, so a short one suffices.
	res, rep = runBench(t, "--workload", "miss-cold", "--seed", "5", "--seconds", "2", "--trace", "1", "--wrong-reference")
	if res.Correct || res.Failed == 0 || rep.Untraced.ErrorRate <= 0 {
		t.Errorf("skewed miss references not caught: correct=%v failed=%d error_rate=%v",
			res.Correct, res.Failed, rep.Untraced.ErrorRate)
	}
}
