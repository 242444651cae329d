// Command bench measures cmd/served end to end, and layer by layer, on
// three named workloads. Run it from the repository root:
//
//	bash bench/run.sh --workload read-dram --seed 1 --seconds 25 --trace 0
//
// or, from bench/, go run . -workload read-dram. See README.md for the
// metrics, the workloads and how to read the numbers.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// config is what the command line asks for.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	runs     int
	out      string // results file to write
	base     string // results file to compare with
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "all", "workload to run: read-dram, mget-cache, write-durable or all")
	flag.Uint64Var(&c.seed, "seed", 1, "seed the datasets and request streams are drawn from")
	flag.Float64Var(&c.seconds, "seconds", 25, "seconds one run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced in-process stack and prints the per-layer metrics")
	flag.IntVar(&c.runs, "runs", 1, "runs of each workload, with seeds seed, seed+1, ...")
	flag.StringVar(&c.out, "out", "", "write every run, with a header describing the machine, to this JSON file")
	flag.StringVar(&c.base, "compare", "", "results file of a base tree to compare the runs with")
	flag.Parse()
	c.trace = trace == 1
	if err := run(os.Stdout, c); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// env is what every run shares: the checkout, the served binary built
// from it, and a scratch directory removed at the end.
type env struct {
	root   string
	served string
	tmp    string
}

// workDir is where the benchmark keeps its builds and scratch files,
// inside the checkout.
const workDir = ".bench_build"

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	work := filepath.Join(root, workDir)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildServed(root, work)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, served: bin, tmp: tmp}, nil
}

func (e *env) close() { os.RemoveAll(e.tmp) }

// findRoot returns the checkout holding cmd/served: the working
// directory or its parent.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "served", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("cmd/served not found in the working directory or its parent")
}

func run(w io.Writer, c config) error {
	runtime.GOMAXPROCS(2)
	sel := workloads
	if c.workload != "all" {
		wl, ok := findWorkload(c.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", c.workload)
		}
		sel = []workload{wl}
	}
	if c.runs < 1 || c.seconds <= 0 {
		return errors.New("-runs and -seconds must be positive")
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	defer e.close()
	spec, err := loadSpec(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	hdr := newHeader(e, c)
	fmt.Fprintf(w, "served %s; data dir on %s; client GOMAXPROCS=%d, %d connections; %d CPUs (%s), %s\n",
		hdr.Fsync, hdr.DataFS, hdr.GOMAXPROCS, conns, hdr.NProc, hdr.CPU, hdr.GoVersion)

	var results []result
	for r := 0; r < c.runs; r++ {
		seed := c.seed + uint64(r)
		for _, wl := range sel {
			var res *result
			if c.trace {
				res, err = traceWorkload(e, wl, seed, c.seconds)
			} else {
				res, err = runWorkload(e, wl, seed, c.seconds)
			}
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", wl.name, seed, err)
			}
			res.Trace = c.trace
			printResult(w, &wl, res, spec)
			results = append(results, *res)
		}
	}
	if c.out != "" {
		if err := writeResults(c.out, resultsFile{Header: hdr, Runs: results}); err != nil {
			return err
		}
	}
	if c.base != "" {
		if err := compare(w, c.base, results, spec); err != nil {
			return err
		}
	}
	return printSummary(w, results, spec, c.trace, len(sel) == 1)
}

func printResult(w io.Writer, wl *workload, r *result, spec *benchSpec) {
	kind, latency := "untraced, served", "round trips, 1 in flight per conn"
	names := spec.EndToEnd
	if r.Trace {
		kind, latency, names = "traced, in process", fmt.Sprintf("open loop %.0f req/s", wl.rate), spec.PerLayer
	}
	fmt.Fprintf(w, "\n%s seed %d (%s): %d pairs preloaded, %.0f%% reads of %d key(s), %d conns x depth %d, %s\n",
		wl.name, r.Seed, kind, wl.pairs, 100*wl.get, wl.keysPerRead(), conns, wl.depth, latency)
	for _, m := range names {
		fmt.Fprintf(w, "  %-30s %16.4f %s\n", m.Name, r.Metrics[m.Name], m.Unit)
	}
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-30s %16.4f\n", k, r.Extra[k])
	}
	fmt.Fprintf(w, "  %d requests, %d failed\n", r.Attempted, r.Failed)
	for _, m := range []map[string]float64{r.Metrics, r.Extra} {
		if lag, ok := m["gen.lag_p99_us"]; ok && lag > float64(lagGate.Microseconds()) {
			fmt.Fprintf(w, "  WARNING: generator lag p99 %.0f us is over the %v gate: the open loop did not offer its rate\n", lag, lagGate)
		}
	}
}

// printSummary prints the last line: one JSON object with the runs'
// outcome and the median of each metric over the runs. With several
// workloads each metric is named workload/metric.
func printSummary(w io.Writer, rs []result, spec *benchSpec, trace, single bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range rs {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
	}
	names := spec.EndToEnd
	if trace {
		names = spec.PerLayer
	}
	for wl, ms := range runsOf(rs) {
		for _, m := range names {
			if len(ms[m.Name]) == 0 {
				continue
			}
			key := wl + "/" + m.Name
			if single {
				key = m.Name
			}
			sum.Metrics[key] = value{median(ms[m.Name]), m.Unit}
		}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// header describes where and how the runs were made.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	DataFS     string  `json:"data_fs"`
	Fsync      string  `json:"fsync"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	Commit     string  `json:"commit"`
}

type resultsFile struct {
	Header header   `json:"header"`
	Runs   []result `json:"runs"`
}

func writeResults(path string, f resultsFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func newHeader(e *env, c config) header {
	return header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		DataFS:     fsType(e.tmp),
		Fsync:      "-wal-sync=true (each SET is acked after its WAL record is fsynced, group-committed)",
		Seed:       c.seed,
		Seconds:    c.seconds,
		Runs:       c.runs,
		Commit:     gitCommit(e.root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs type %#x", st.Type)
}

func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}
