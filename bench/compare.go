package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// quantile interpolates the q-quantile of sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// goodputSpec is an end-to-end metric without a bound: its run-to-run
// spread on a shared VM exceeds any bound BENCHMARK.json may set, so it
// is compared by paired wins alone.
var goodputSpec = metricSpec{Name: "goodput_ops_s", Unit: "ops/s", Better: "higher"}

// verdict compares a metric's runs on the current tree (cur) with its
// runs on a base tree, by the rules of a claimed gain and of no
// regression: improved when the current tree wins at least nine in ten
// run pairs and the medians differ by more than the base's quartile
// spread; regressed when the current median is worse by more than the
// bound; unresolved when either side's quartile spread, as a share of
// its median, is wider than the bound, unless every current run beats
// every base run; unchanged otherwise. A metric without a bound is
// regressed by the mirror of the gain rule, and unresolved otherwise.
func verdict(base, cur []float64, m metricSpec) string {
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	mb, mc := median(base), median(cur)
	b1, b3 := quartiles(base)
	c1, c3 := quartiles(cur)
	wins, losses, pairs := 0, 0, min(len(base), len(cur))
	for i := 0; i < pairs; i++ {
		if better(cur[i], base[i]) {
			wins++
		} else if better(base[i], cur[i]) {
			losses++
		}
	}
	apart := math.Abs(mc-mb) > b3-b1
	if pairs > 0 && 10*wins >= 9*pairs && apart {
		return "improved"
	}
	if m.Bound == 0 {
		if pairs > 0 && 10*losses >= 9*pairs && apart {
			return "regressed"
		}
		return "unresolved"
	}
	dominates := better(slices.Max(cur), slices.Min(base))
	if m.Better == "higher" {
		dominates = better(slices.Min(cur), slices.Max(base))
	}
	if ((b3-b1)/math.Abs(mb) > m.Bound || (c3-c1)/math.Abs(mc) > m.Bound) && !dominates {
		return "unresolved"
	}
	worse := (mc - mb) / math.Abs(mb)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "regressed"
	}
	return "unchanged"
}

// runsOf collects, per workload, each metric's and diagnostic's values
// over runs in run order.
func runsOf(rs []result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, m := range []map[string]float64{r.Metrics, r.Extra} {
			for k, v := range m {
				out[r.Workload][k] = append(out[r.Workload][k], v)
			}
		}
	}
	return out
}

// compare prints a verdict for every end-to-end metric, goodput
// included, on every workload that both the base file and the current
// runs measured.
func compare(w io.Writer, basePath string, cur []result, spec *benchSpec) error {
	b, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	var base resultsFile
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("%s: %w", basePath, err)
	}
	br, cr := runsOf(untraced(base.Runs)), runsOf(untraced(cur))
	fmt.Fprintf(w, "\ncompare with %s (%d base runs, %d current runs)\n", basePath, len(base.Runs), len(cur))
	fmt.Fprintf(w, "%-14s %-26s %14s %14s %8s  %s\n", "workload", "metric", "base median", "median", "change", "verdict")
	for _, wl := range workloads {
		for _, m := range append([]metricSpec{goodputSpec}, spec.EndToEnd...) {
			bv, cv := br[wl.name][m.Name], cr[wl.name][m.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			mb, mc := median(bv), median(cv)
			note := ""
			if min(len(bv), len(cv)) < 10 {
				note = " (the rules assume 10 runs a side)"
			}
			fmt.Fprintf(w, "%-14s %-26s %14.6g %14.6g %+7.1f%%  %s%s\n",
				wl.name, m.Name, mb, mc, 100*(mc-mb)/math.Abs(mb), verdict(bv, cv, m), note)
		}
	}
	return nil
}

func untraced(rs []result) []result {
	var out []result
	for _, r := range rs {
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out
}
