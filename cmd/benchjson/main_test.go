package main

import (
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
