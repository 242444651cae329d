// Command reprolint runs the repository's invariant analyzers (package
// repro/internal/lint): seqatomic, noalloc, unsafeview, digestflow,
// fsyncorder, boundedinput and lockorder. See ANNOTATIONS.md for the
// //repro:* directives they enforce.
//
// Standalone:
//
//	reprolint ./...          # or any go list patterns; default ./...
//
// exits 1 and prints file:line:col findings if any invariant is broken.
//
// LINT_ANALYZERS=fsyncorder,lockorder restricts the run to a
// comma-separated subset of analyzer names (both standalone and under
// go vet; the selection is folded into the -V=full identity so vet's
// build cache never replays a filtered run's verdicts as a full run).
//
// As a vet tool:
//
//	go vet -vettool=$(command -v reprolint) ./...
//
// reprolint then speaks the go vet unit-check protocol: -V=full
// identifies the tool for the build cache (bump toolVersion whenever an
// analyzer's behaviour changes, or stale cached verdicts survive),
// -flags advertises no extra flags, and each compilation unit arrives
// as a JSON .cfg file whose export-data map replaces `go list`.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// toolVersion feeds the go vet build cache via -V=full: changing any
// analyzer's behaviour must bump this, or cached clean verdicts from
// the old analyzers keep suppressing new findings.
const toolVersion = "11"

// selectedAnalyzers honours the LINT_ANALYZERS environment variable: a
// comma-separated list of analyzer names restricts the run to that
// subset. Empty or unset means every analyzer. Unknown names are an
// error — a typo silently running zero analyzers would read as "clean".
func selectedAnalyzers() ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	env := strings.TrimSpace(os.Getenv("LINT_ANALYZERS"))
	if env == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*lint.Analyzer
	for _, name := range strings.Split(env, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("LINT_ANALYZERS: unknown analyzer %q", name)
		}
		picked = append(picked, a)
	}
	if len(picked) == 0 {
		return all, nil
	}
	return picked, nil
}

func main() {
	args := os.Args[1:]

	// The go vet tool protocol probes first with -V=full (tool identity
	// for the build cache: "name version stuff"), then -flags (JSON list
	// of extra flags; we declare none), then invokes the tool once per
	// package with a single path/to/unit.cfg argument.
	if len(args) == 1 {
		switch {
		case strings.HasPrefix(args[0], "-V"):
			// Fold the analyzer selection into the cache identity: a
			// vet run under LINT_ANALYZERS=noalloc must not poison the
			// cache for later full runs (or vice versa).
			if env := strings.TrimSpace(os.Getenv("LINT_ANALYZERS")); env != "" {
				fmt.Printf("reprolint version %s analyzers=%s\n", toolVersion, env)
			} else {
				fmt.Printf("reprolint version %s\n", toolVersion)
			}
			return
		case args[0] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(unitCheck(args[0]))
		}
	}

	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	analyzers, err := selectedAnalyzers()
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		os.Exit(1)
	}
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		os.Exit(1)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// vetConfig is the unit-check configuration the go command writes for
// each package (cmd/go/internal/work's vetConfig).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func unitCheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The go command requires the output facts file to exist even though
	// these analyzers exchange no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("reprolint\n"), 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency pass: nothing to analyze, facts written
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("reprolint: no export data for %q", path)
		}
		return os.Open(file)
	}
	goFiles := make([]string, 0, len(cfg.GoFiles))
	for _, f := range cfg.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(cfg.Dir, f)
		}
		goFiles = append(goFiles, f)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	pkg, err := lint.CheckFiles(cfg.ImportPath, cfg.Dir, goFiles, compiler, lookup)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 1
	}
	analyzers, err := selectedAnalyzers()
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 1
	}
	diags, err := lint.Run([]*lint.Package{pkg}, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprolint: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2 // the protocol's "diagnostics reported" exit status
	}
	return 0
}
