package obs

// Registry: named metrics plus Prometheus text exposition. The
// registry is the cold side of the package — registration and
// encoding take a mutex and may allocate; nothing here is called from
// a hot path. Histograms are exposed as summaries (pre-computed
// p50/p99/p999 from a snapshot) rather than as 1920-bucket native
// histograms: the fixed quantiles are what the smoke scripts and the
// experiment runner consume, and the full bucket array stays
// available in-process through Snapshot.

import (
	"io"
	"sort"
	"strconv"
	"sync"
)

// quantiles are the summary quantiles every histogram exports.
var quantiles = [...]float64{0.5, 0.99, 0.999}

// quantileLabels must match quantiles entry for entry.
var quantileLabels = [...]string{"0.5", "0.99", "0.999"}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHist
)

type metric struct {
	name string
	help string
	kind metricKind

	counter *Counter
	gauge   func() float64
	// set, when non-nil, computes this gauge with its set's other
	// gauges; the value is vals[setIdx] of the set's fill.
	set    *gaugeSet
	setIdx int
	hist   *Histogram
	// scale multiplies histogram values on exposition (1e-9 turns
	// recorded nanoseconds into Prometheus-conventional seconds).
	scale float64
}

// Registry holds named metrics for exposition. The zero value is
// unusable; create with NewRegistry. Registration order is irrelevant:
// exposition sorts by name so the output is deterministic.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

func (r *Registry) add(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[m.name] {
		panic("obs: duplicate metric " + m.name)
	}
	r.byName[m.name] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers c under name and returns c (so callers can
// register and retain in one expression).
func (r *Registry) Counter(name, help string, c *Counter) *Counter {
	r.add(metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers a pull gauge: fn is called at exposition time, so
// values derived from live structures (map length, WAL size, active
// connections) need no shadow bookkeeping. fn must be safe to call
// concurrently with whatever it reads.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.add(metric{name: name, help: help, kind: kindGauge, gauge: fn})
}

// gaugeSet is the shared computation behind a GaugeSet's gauges: fill
// writes every gauge's value into vals, one entry per gauge.
type gaugeSet struct {
	n    int
	fill func(vals []float64)
}

// SetGauge is one gauge of a GaugeSet: its name and help, and the value
// it reads from the set's snapshot.
type SetGauge[T any] struct {
	Name, Help string
	Value      func(T) float64
}

// GaugeSet registers pull gauges that read one snapshot: each
// exposition calls snapshot once, however many of the gauges it
// encodes, so a snapshot that is costly to take (a walk of every map
// shard) is taken once per scrape, and the gauges of one scrape agree.
// The snapshot lives in storage local to the exposition call, so
// concurrent expositions share nothing. snapshot must be safe to call
// concurrently with whatever it reads.
func GaugeSet[T any](r *Registry, snapshot func() T, gauges ...SetGauge[T]) {
	set := &gaugeSet{n: len(gauges), fill: func(vals []float64) {
		s := snapshot()
		for i, g := range gauges {
			vals[i] = g.Value(s)
		}
	}}
	for i, g := range gauges {
		r.add(metric{name: g.Name, help: g.Help, kind: kindGauge, set: set, setIdx: i})
	}
}

// Histogram registers h under name as a summary. scale multiplies
// recorded values on exposition: pass 1e-9 for histograms recording
// nanoseconds (exported in seconds, per Prometheus convention) and 1
// for counts and sizes.
func (r *Registry) Histogram(name, help string, h *Histogram, scale float64) *Histogram {
	if scale == 0 {
		scale = 1
	}
	r.add(metric{name: name, help: help, kind: kindHist, hist: h, scale: scale})
	return h
}

// AppendProm appends the registry's Prometheus text exposition to dst
// and returns the extended slice. Metrics appear sorted by name, each
// with # HELP and # TYPE lines; histograms encode as summaries with
// quantile labels plus _sum and _count series.
func (r *Registry) AppendProm(dst []byte) []byte {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	var snap HistSnapshot
	sets := make(map[*gaugeSet][]float64) // each gauge set's values, filled at its first gauge
	for _, m := range ms {
		dst = append(dst, "# HELP "...)
		dst = append(dst, m.name...)
		dst = append(dst, ' ')
		dst = append(dst, m.help...)
		dst = append(dst, '\n')
		dst = append(dst, "# TYPE "...)
		dst = append(dst, m.name...)
		switch m.kind {
		case kindCounter:
			dst = append(dst, " counter\n"...)
			dst = append(dst, m.name...)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, m.counter.Load(), 10)
			dst = append(dst, '\n')
		case kindGauge:
			dst = append(dst, " gauge\n"...)
			dst = append(dst, m.name...)
			dst = append(dst, ' ')
			if m.set == nil {
				dst = appendFloat(dst, m.gauge())
			} else {
				vals, ok := sets[m.set]
				if !ok {
					vals = make([]float64, m.set.n)
					m.set.fill(vals)
					sets[m.set] = vals
				}
				dst = appendFloat(dst, vals[m.setIdx])
			}
			dst = append(dst, '\n')
		case kindHist:
			dst = append(dst, " summary\n"...)
			m.hist.Snapshot(&snap)
			for i, q := range quantiles {
				dst = append(dst, m.name...)
				dst = append(dst, `{quantile="`...)
				dst = append(dst, quantileLabels[i]...)
				dst = append(dst, `"} `...)
				dst = appendFloat(dst, float64(snap.Quantile(q))*m.scale)
				dst = append(dst, '\n')
			}
			dst = append(dst, m.name...)
			dst = append(dst, "_sum "...)
			dst = appendFloat(dst, snap.Sum()*m.scale)
			dst = append(dst, '\n')
			dst = append(dst, m.name...)
			dst = append(dst, "_count "...)
			dst = strconv.AppendUint(dst, snap.Count, 10)
			dst = append(dst, '\n')
		}
	}
	return dst
}

// WriteProm writes the registry's Prometheus text exposition to w —
// the /metrics handler's body.
func (r *Registry) WriteProm(w io.Writer) error {
	_, err := w.Write(r.AppendProm(nil))
	return err
}

// appendFloat encodes floats the way Prometheus text exposition
// expects: shortest round-trip representation.
func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}
