package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestConvertFoldsRepeatsPerPackage feeds a two-package transcript with
// -count 3 repeats at two -cpu values: each result keeps the package it
// ran in, and the repeats of one (package, name, procs) fold into their
// median with the min and max beside it.
func TestConvertFoldsRepeatsPerPackage(t *testing.T) {
	const transcript = `goos: linux
goarch: amd64
pkg: repro/internal/cmap
cpu: Test CPU @ 2.10GHz
BenchmarkMapSerialGet/uint64         	 1000	       120.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkMapSerialGet/uint64         	 1000	       100.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkMapSerialGet/uint64         	 3000	       110.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkCMapGetParallel/shards=1-2  	 2000	        80.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/cmap	1.0s
pkg: repro/internal/obs
BenchmarkObsRecord   	 5000	        9.0 ns/op
BenchmarkObsRecord   	 5000	        11.0 ns/op
ok  	repro/internal/obs	1.0s
`
	doc, err := convert(strings.NewReader(transcript), 2)
	if err != nil {
		t.Fatal(err)
	}
	if doc.NProc != 2 || doc.CPU != "Test CPU @ 2.10GHz" || doc.GoOS != "linux" {
		t.Fatalf("header = %+v", doc)
	}
	want := []Result{
		{Pkg: "repro/internal/cmap", Name: "BenchmarkMapSerialGet/uint64", Procs: 1, Runs: 3, Iterations: 1000, NsPerOp: 110, NsPerOpMin: 100, NsPerOpMax: 120},
		{Pkg: "repro/internal/cmap", Name: "BenchmarkCMapGetParallel/shards=1", Procs: 2, Runs: 1, Iterations: 2000, NsPerOp: 80, NsPerOpMin: 80, NsPerOpMax: 80},
		{Pkg: "repro/internal/obs", Name: "BenchmarkObsRecord", Procs: 1, Runs: 2, Iterations: 5000, NsPerOp: 10, NsPerOpMin: 9, NsPerOpMax: 11},
	}
	if len(doc.Benchmarks) != len(want) {
		t.Fatalf("got %d results, want %d: %+v", len(doc.Benchmarks), len(want), doc.Benchmarks)
	}
	for i, w := range want {
		if got := doc.Benchmarks[i]; got != w {
			t.Errorf("result %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestCompareFlagsOnlyBeyondBothSpreads: an entry is reported only when
// its median moved by more than the min–max spread of both documents,
// and entries one side lacks are counted, not compared.
func TestCompareFlagsOnlyBeyondBothSpreads(t *testing.T) {
	entry := func(name string, procs int, med, lo, hi float64) Result {
		return Result{Pkg: "repro/internal/cmap", Name: name, Procs: procs, Runs: 6, NsPerOp: med, NsPerOpMin: lo, NsPerOpMax: hi}
	}
	base := Doc{NProc: 2, Benchmarks: []Result{
		entry("BenchmarkInNoise", 1, 100, 95, 105),
		entry("BenchmarkWideNew", 1, 100, 99, 101),
		entry("BenchmarkSlower", 1, 100, 99, 101),
		entry("BenchmarkSlower", 2, 100, 99, 101), // other procs: its own entry
		entry("BenchmarkFaster", 1, 200, 190, 210),
		entry("BenchmarkGone", 1, 10, 9, 11),
	}}
	cur := Doc{NProc: 2, Benchmarks: []Result{
		entry("BenchmarkInNoise", 1, 103, 98, 108), // moved 3, spreads 10 and 10
		entry("BenchmarkWideNew", 1, 130, 90, 170), // moved 30, new spread 80
		entry("BenchmarkSlower", 1, 110, 108, 112), // moved 10, spreads 2 and 4
		entry("BenchmarkSlower", 2, 101, 100, 102), // moved 1, spreads 2 and 2
		entry("BenchmarkFaster", 1, 150, 148, 152), // moved −50, spreads 20 and 4
		entry("BenchmarkAdded", 1, 10, 9, 11),
	}}
	ms, onlyBase, onlyCur := compare(base, cur)
	var got []string
	for _, m := range ms {
		got = append(got, fmt.Sprintf("%s-%d", m.cur.Name, m.cur.Procs))
	}
	want := []string{"BenchmarkSlower-1", "BenchmarkFaster-1"}
	if !slices.Equal(got, want) {
		t.Errorf("moved = %v, want %v", got, want)
	}
	if onlyBase != 1 || onlyCur != 1 {
		t.Errorf("unmatched = %d base, %d new; want 1 and 1", onlyBase, onlyCur)
	}

	var out strings.Builder
	report(&out, base, cur)
	for _, line := range []string{
		"2 of 5 shared entries moved beyond both min–max spreads",
		"repro/internal/cmap BenchmarkSlower -cpu 1: 100.0 [99.0–101.0] → 110.0 [108.0–112.0] ns/op (+10.0%)",
		"repro/internal/cmap BenchmarkFaster -cpu 1: 200.0 [190.0–210.0] → 150.0 [148.0–152.0] ns/op (-25.0%)",
		"1 entries only in the base, 1 only in the new document",
	} {
		if !strings.Contains(out.String(), line+"\n") {
			t.Errorf("report lacks %q:\n%s", line, out.String())
		}
	}
}
