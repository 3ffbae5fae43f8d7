package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

const header = "goos: linux\ngoarch: amd64\npkg: oarsmt/internal/x\ncpu: Test CPU @ 1GHz\n"

func mustParse(t *testing.T, text string) Report {
	t.Helper()
	rep, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return rep
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		name  string
		in    string
		procs int
		want  []Entry // nil: a parse error
	}{
		{
			name:  "suffix stripped, sub-benchmark kept",
			in:    header + "BenchmarkCheckpointLatest/files=16-2   \t 2168\t 619123 ns/op\t 268663 B/op\t 152 allocs/op\n",
			procs: 2,
			want:  []Entry{{Name: "BenchmarkCheckpointLatest/files=16", NsPerOp: 619123, Band: minBand, AllocsPerOp: 152}},
		},
		{
			name:  "no suffix at GOMAXPROCS=1",
			in:    header + "BenchmarkStoreGet \t17709019\t 63.17 ns/op\t 0 B/op\t 0 allocs/op\n",
			procs: 1,
			want:  []Entry{{Name: "BenchmarkStoreGet", NsPerOp: 63.17, Band: minBand}},
		},
		{
			name: "min over samples, allocs max and jitter",
			in: header +
				"BenchmarkStoreCompact-2 \t 369\t 4000000 ns/op\t 315201 B/op\t 198 allocs/op\n" +
				"BenchmarkStoreCompact-2 \t 369\t 3900000 ns/op\t 315201 B/op\t 199 allocs/op\n" +
				"BenchmarkStoreCompact-2 \t 369\t 4100000 ns/op\t 315201 B/op\t 199 allocs/op\n",
			procs: 2,
			want:  []Entry{{Name: "BenchmarkStoreCompact", NsPerOp: 3900000, Band: 0.11, AllocsPerOp: 199, AllocJitter: 1}},
		},
		{
			name:  "MB/s column skipped",
			in:    header + "BenchmarkStoreSegmentWrite-2 \t 1785\t 980360 ns/op\t 35.83 MB/s\t 42194 B/op\t 21 allocs/op\n",
			procs: 2,
			want:  []Entry{{Name: "BenchmarkStoreSegmentWrite", NsPerOp: 980360, Band: minBand, AllocsPerOp: 21}},
		},
		{
			name: "work counts kept per unit",
			in: header +
				"BenchmarkOARMST32x32-2 \t 600\t 1950000 ns/op\t 7100 pops/op\t 20300 relax/op\t 4096 B/op\t 30 allocs/op\n" +
				"BenchmarkOARMST32x32-2 \t 650\t 1900000 ns/op\t 7100 pops/op\t 20300 relax/op\t 4096 B/op\t 30 allocs/op\n",
			procs: 2,
			want: []Entry{{Name: "BenchmarkOARMST32x32", NsPerOp: 1900000, Band: minBand, AllocsPerOp: 30,
				Work: map[string]float64{"pops/op": 7100, "relax/op": 20300}}},
		},
		{
			name: "work counts disagree between samples",
			in: header +
				"BenchmarkOARMST32x32-2 \t 600\t 1950000 ns/op\t 7100 pops/op\t 30 allocs/op\n" +
				"BenchmarkOARMST32x32-2 \t 650\t 1900000 ns/op\t 7101 pops/op\t 30 allocs/op\n",
		},
		{name: "no benchmark lines", in: header + "PASS\nok  \toarsmt/internal/x\t1.0s\n"},
		{name: "failed run", in: header + "BenchmarkA-2 \t 10\t 100 ns/op\n--- FAIL: BenchmarkB-2\nFAIL\toarsmt/internal/x\t1.0s\n"},
		{name: "mixed GOMAXPROCS", in: header + "BenchmarkA-2 \t 10\t 100 ns/op\nBenchmarkA-4 \t 10\t 100 ns/op\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := parse(strings.NewReader(tc.in))
			if tc.want == nil {
				if err == nil {
					t.Fatalf("parse succeeded with %+v; want an error", rep)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.GoMaxProcs != tc.procs || rep.CPU != "Test CPU @ 1GHz" {
				t.Errorf("GOMAXPROCS %d, cpu %q; want %d, %q", rep.GoMaxProcs, rep.CPU, tc.procs, "Test CPU @ 1GHz")
			}
			if fmt.Sprint(rep.Benchmarks) != fmt.Sprint(tc.want) {
				t.Errorf("got %+v\nwant %+v", rep.Benchmarks, tc.want)
			}
		})
	}
}

// benchText renders a two-sample run of three benchmarks at the given
// GOMAXPROCS: the conv samples agree (band minBand), the compaction
// samples are 1 alloc apart, and the OARMST samples report work counts.
func benchText(procs int, convNs float64, convAllocs int, compact bool) string {
	var b strings.Builder
	b.WriteString(header)
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&b, "BenchmarkConv3DForward16-%d \t 3000\t %.0f ns/op\t 66885 B/op\t %d allocs/op\n", procs, convNs, convAllocs)
		if compact {
			fmt.Fprintf(&b, "BenchmarkStoreCompact-%d \t 369\t 3900000 ns/op\t 315201 B/op\t %d allocs/op\n", procs, 198+i)
		}
		fmt.Fprintf(&b, "BenchmarkOARMST32x32-%d \t 600\t 1900000 ns/op\t 7100 pops/op\t 20300 relax/op\t 4096 B/op\t 30 allocs/op\n", procs)
	}
	return b.String()
}

func TestRecordThenGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_micro.json")
	base := mustParse(t, benchText(2, 400000, 6, true))
	if err := gate(path, base); err == nil || !strings.Contains(err.Error(), "make bench") {
		t.Fatalf("gate without a record: %v", err)
	}
	if err := record(path, base); err != nil {
		t.Fatal(err)
	}
	if got := base.Benchmarks[0]; got.Band != minBand || got.Name != "BenchmarkConv3DForward16" {
		t.Fatalf("conv band %v, want %v", got.Band, minBand)
	}

	slow := 400000 * (1 + minBand) * 1.001
	for _, tc := range []struct {
		name string
		run  string
		want string // "" = passes
	}{
		{"same input", benchText(2, 400000, 6, true), ""},
		{"within band", benchText(2, 400000*(1+minBand)*0.999, 6, true), ""},
		{"compaction alloc jitter", strings.ReplaceAll(benchText(2, 400000, 6, true), "198 allocs", "199 allocs"), ""},
		{"slower than band", benchText(2, slow, 6, true), "SLOWER BenchmarkConv3DForward16"},
		{"one more alloc", benchText(2, 400000, 7, true), "ALLOCS BenchmarkConv3DForward16"},
		{"two more allocs", benchText(2, 400000, 8, true), "ALLOCS BenchmarkConv3DForward16"},
		{"benchmark dropped", benchText(2, 400000, 6, false), "MISSING BenchmarkStoreCompact"},
		{"fewer heap pops", strings.ReplaceAll(benchText(2, 400000, 6, true), "7100 pops", "7000 pops"), ""},
		{"one more heap pop", strings.ReplaceAll(benchText(2, 400000, 6, true), "7100 pops", "7101 pops"),
			"WORK BenchmarkOARMST32x32: 7101 pops/op, recorded 7100"},
		{"work count dropped", strings.ReplaceAll(benchText(2, 400000, 6, true), "20300 relax/op", ""),
			"WORK BenchmarkOARMST32x32: no relax/op"},
		{"GOMAXPROCS changed", benchText(4, 400000, 6, true), "run make bench"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := gate(path, mustParse(t, tc.run))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("gate error %v; want one containing %q", err, tc.want)
			}
		})
	}

	// Record mode refuses to overwrite a same-machine record that the new
	// run fails, and leaves the record as it was.
	if err := record(path, mustParse(t, benchText(2, slow, 6, true))); err == nil || !strings.Contains(err.Error(), "not rewriting") {
		t.Fatalf("record over a regression: %v; want a refusal", err)
	}
	if err := gate(path, base); err != nil {
		t.Fatalf("record changed after a refused write: %v", err)
	}

	// A record from another machine is replaced.
	other := mustParse(t, benchText(4, slow, 6, true))
	if err := record(path, other); err != nil {
		t.Fatalf("record over another machine's report: %v", err)
	}
	if err := gate(path, other); err != nil {
		t.Fatal(err)
	}
}

// TestRecordCarriesAbsentEntries records a full run, then a run of one
// benchmark: that entry is re-recorded, the other two stay byte-identical,
// and the gate still reports a benchmark absent from a run as MISSING.
func TestRecordCarriesAbsentEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_micro.json")
	if err := record(path, mustParse(t, benchText(2, 400000, 6, true))); err != nil {
		t.Fatal(err)
	}
	entries := func() map[string]string {
		t.Helper()
		rep, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range rep.Benchmarks {
			data, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name] = string(data)
		}
		return out
	}
	before := entries()

	var conv strings.Builder
	conv.WriteString(header)
	for i := 0; i < 2; i++ {
		fmt.Fprintf(&conv, "BenchmarkConv3DForward16-2 \t 3000\t %d ns/op\t 66885 B/op\t 6 allocs/op\n", 300000+50000*i)
	}
	if err := record(path, mustParse(t, conv.String())); err != nil {
		t.Fatal(err)
	}
	after := entries()
	if len(after) != 3 {
		t.Fatalf("record has %d entries after a one-benchmark run, want 3", len(after))
	}
	for _, name := range []string{"BenchmarkStoreCompact", "BenchmarkOARMST32x32"} {
		if after[name] != before[name] {
			t.Errorf("%s changed:\n%s\nwas\n%s", name, after[name], before[name])
		}
	}
	if c := "BenchmarkConv3DForward16"; after[c] == before[c] {
		t.Errorf("%s was not re-recorded", c)
	}
	if err := gate(path, mustParse(t, conv.String())); err == nil || !strings.Contains(err.Error(), "MISSING BenchmarkStoreCompact") {
		t.Fatalf("gate on a partial run: %v; want MISSING", err)
	}
}
