// Command benchjson converts `go test -bench` output (Go benchfmt) on
// stdin into a stable JSON document on stdout, so benchmark numbers can
// be checked into the repository (BENCH_get.json) and diffed PR over PR
// without fragile text parsing downstream.
//
// Usage:
//
//	go test -run '^$' -bench 'CMapGet' -benchmem -count 6 -cpu 1,$(nproc) ./internal/cmap | go run ./cmd/benchjson
//
// Each result line
//
//	BenchmarkCMapGetParallel/shards=64/uniform-8   20000000   86.4 ns/op   0 B/op   0 allocs/op
//
// is keyed by the package it ran in (the latest `pkg:` header line), the
// benchmark name and the GOMAXPROCS suffix (the `-cpu` value the run
// used). The repeats a `-count` run prints for one key fold into one
// entry: the median of every recognized per-op metric, plus the minimum
// and maximum time per op and the number of runs, so a reader can tell a
// difference from the spread. The document also records the machine:
// goos, goarch, the CPU model line and the CPU count (nproc, as the Go
// runtime sees it on the machine benchjson runs on — run it in the same
// pipeline as the benchmarks). Unrecognized lines are ignored, so the
// tool is safe to feed a whole `make bench` transcript.
//
// With -base it compares two converted documents instead:
//
//	go run ./cmd/benchjson -base old.json new.json
//
// lists the entries both documents hold whose medians differ by more
// than the min–max spread of either side, and counts the entries only
// one side holds. It is a report: it exits 0 whatever moved, and
// nonzero only when a document cannot be read.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements, folded over its runs.
type Result struct {
	Pkg         string  `json:"pkg"`                // import path of the package the benchmark ran in
	Name        string  `json:"name"`               // full sub-benchmark path, -cpu suffix stripped
	Procs       int     `json:"procs"`              // GOMAXPROCS the run used (the -N suffix; 1 if absent)
	Runs        int     `json:"runs"`               // result lines folded into this entry (the -count)
	Iterations  int64   `json:"iterations"`         // median b.N
	NsPerOp     float64 `json:"ns_per_op"`          // median time/op in nanoseconds
	NsPerOpMin  float64 `json:"ns_per_op_min"`      // fastest run
	NsPerOpMax  float64 `json:"ns_per_op_max"`      // slowest run
	BytesPerOp  float64 `json:"b_per_op"`           // median allocated bytes/op (-benchmem)
	AllocsPerOp float64 `json:"allocs_per_op"`      // median allocations/op (-benchmem)
	MBPerSec    float64 `json:"mb_per_s,omitempty"` // median throughput, when the benchmark reports it
}

// Doc is the whole converted run.
type Doc struct {
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	NProc      int      `json:"nproc"`
	Benchmarks []Result `json:"benchmarks"`
}

// run is one parsed result line.
type run struct {
	key                         string // pkg, name and procs
	pkg, name                   string
	procs                       int
	iters                       int64
	ns, bytes, allocs, mbPerSec float64
}

func main() {
	base := flag.String("base", "", "compare the document named by the argument against this one instead of converting stdin")
	flag.Parse()
	var err error
	if *base != "" {
		err = compareFiles(os.Stdout, *base, flag.Arg(0))
	} else {
		err = convertStdin()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// convertStdin converts the benchfmt transcript on stdin to JSON on
// stdout.
func convertStdin() error {
	doc, err := convert(os.Stdin, runtime.NumCPU())
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// convert reads a benchfmt transcript and folds it into a Doc for a
// machine with nproc CPUs.
func convert(in io.Reader, nproc int) (Doc, error) {
	doc := Doc{NProc: nproc, Benchmarks: []Result{}}
	var order []string
	runs := make(map[string][]run)
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseRun(pkg, line); ok {
				if _, seen := runs[r.key]; !seen {
					order = append(order, r.key)
				}
				runs[r.key] = append(runs[r.key], r)
			}
		}
	}
	for _, k := range order {
		doc.Benchmarks = append(doc.Benchmarks, fold(runs[k]))
	}
	return doc, sc.Err()
}

// parseRun decodes one benchfmt result line: name, iteration count,
// then (value, unit) pairs.
func parseRun(pkg, line string) (run, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return run{}, false
	}
	name, procs := splitProcs(f[0])
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return run{}, false
	}
	r := run{key: fmt.Sprintf("%s\x00%s\x00%d", pkg, name, procs), pkg: pkg, name: name, procs: procs, iters: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return run{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.ns = v
		case "B/op":
			r.bytes = v
		case "allocs/op":
			r.allocs = v
		case "MB/s":
			r.mbPerSec = v
		}
	}
	return r, true
}

// fold merges the runs of one benchmark into its entry.
func fold(rs []run) Result {
	ns := field(rs, func(r run) float64 { return r.ns })
	return Result{
		Pkg:         rs[0].pkg,
		Name:        rs[0].name,
		Procs:       rs[0].procs,
		Runs:        len(rs),
		Iterations:  int64(median(field(rs, func(r run) float64 { return float64(r.iters) }))),
		NsPerOp:     median(ns),
		NsPerOpMin:  slices.Min(ns),
		NsPerOpMax:  slices.Max(ns),
		BytesPerOp:  median(field(rs, func(r run) float64 { return r.bytes })),
		AllocsPerOp: median(field(rs, func(r run) float64 { return r.allocs })),
		MBPerSec:    median(field(rs, func(r run) float64 { return r.mbPerSec })),
	}
}

// field extracts one metric from every run.
func field(rs []run, f func(run) float64) []float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = f(r)
	}
	return vs
}

// median returns the median of vs (the mean of the middle two for an
// even count).
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// splitProcs strips the trailing -N GOMAXPROCS suffix the bench runner
// appends (for every -cpu value but 1), returning the bare name and N.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}

// compareFiles reads two converted documents and writes the report of
// what moved between them to w.
func compareFiles(w io.Writer, basePath, newPath string) error {
	if newPath == "" {
		return fmt.Errorf("-base needs the new document as an argument")
	}
	base, err := readDoc(basePath)
	if err != nil {
		return err
	}
	cur, err := readDoc(newPath)
	if err != nil {
		return err
	}
	report(w, base, cur)
	return nil
}

// readDoc reads a converted document.
func readDoc(path string) (Doc, error) {
	var doc Doc
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// moved is an entry whose median differs between the base and the new
// document by more than either side's min–max spread.
type moved struct{ base, cur Result }

// compare matches the documents' entries by package, name and procs and
// returns those that moved, in the new document's order, with the
// counts of entries only one side holds.
func compare(base, cur Doc) (out []moved, onlyBase, onlyCur int) {
	key := func(r Result) string { return fmt.Sprintf("%s\x00%s\x00%d", r.Pkg, r.Name, r.Procs) }
	old := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		old[key(r)] = r
	}
	for _, r := range cur.Benchmarks {
		b, ok := old[key(r)]
		if !ok {
			onlyCur++
			continue
		}
		delete(old, key(r))
		spread := max(b.NsPerOpMax-b.NsPerOpMin, r.NsPerOpMax-r.NsPerOpMin)
		if diff := r.NsPerOp - b.NsPerOp; diff > spread || -diff > spread {
			out = append(out, moved{b, r})
		}
	}
	return out, len(old), onlyCur
}

// report writes one line per moved entry — median [min–max] before and
// after, and the relative change — then the unmatched counts.
func report(w io.Writer, base, cur Doc) {
	ms, onlyBase, onlyCur := compare(base, cur)
	fmt.Fprintf(w, "base: %d CPUs, %s; new: %d CPUs, %s\n", base.NProc, base.CPU, cur.NProc, cur.CPU)
	fmt.Fprintf(w, "%d of %d shared entries moved beyond both min–max spreads\n",
		len(ms), len(cur.Benchmarks)-onlyCur)
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s -cpu %d: %.1f [%.1f–%.1f] → %.1f [%.1f–%.1f] ns/op (%+.1f%%)\n",
			m.cur.Pkg, m.cur.Name, m.cur.Procs,
			m.base.NsPerOp, m.base.NsPerOpMin, m.base.NsPerOpMax,
			m.cur.NsPerOp, m.cur.NsPerOpMin, m.cur.NsPerOpMax,
			100*(m.cur.NsPerOp/m.base.NsPerOp-1))
	}
	if onlyBase > 0 || onlyCur > 0 {
		fmt.Fprintf(w, "%d entries only in the base, %d only in the new document\n", onlyBase, onlyCur)
	}
}
