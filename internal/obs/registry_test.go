package obs

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryPromGolden pins the Prometheus text exposition format
// byte for byte: HELP/TYPE framing, name-sorted order, summary
// encoding with quantile labels, and the ns -> seconds scale.
func TestRegistryPromGolden(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("repro_ops_total", "operations served", new(Counter))
	c.Add(42)

	r.Gauge("repro_backlog", "entries awaiting migration", func() float64 { return 7 })

	h := r.Histogram("repro_get_seconds", "GET latency", new(Histogram), 1e-9)
	// 1000ns lands in bucket [992, 1007]; the summary reports the
	// bucket upper bound scaled to seconds.
	for i := 0; i < 10; i++ {
		h.Record(1000)
	}

	sizes := r.Histogram("repro_batch_size", "coalesced batch sizes", new(Histogram), 1)
	sizes.Record(1)
	sizes.Record(1)
	sizes.Record(8) // below subCount: buckets are exact

	const want = `# HELP repro_backlog entries awaiting migration
# TYPE repro_backlog gauge
repro_backlog 7
# HELP repro_batch_size coalesced batch sizes
# TYPE repro_batch_size summary
repro_batch_size{quantile="0.5"} 1
repro_batch_size{quantile="0.99"} 8
repro_batch_size{quantile="0.999"} 8
repro_batch_size_sum 10
repro_batch_size_count 3
# HELP repro_get_seconds GET latency
# TYPE repro_get_seconds summary
repro_get_seconds{quantile="0.5"} 1.007e-06
repro_get_seconds{quantile="0.99"} 1.007e-06
repro_get_seconds{quantile="0.999"} 1.007e-06
repro_get_seconds_sum 9.995e-06
repro_get_seconds_count 10
# HELP repro_ops_total operations served
# TYPE repro_ops_total counter
repro_ops_total 42
`
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Fatalf("prom exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryDuplicatePanics: metric names are a namespace; silent
// shadowing would corrupt dashboards.
func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", new(Counter))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("x", "", new(Counter))
}

// TestGaugeSetOneSnapshotPerExposition: one AppendProm takes a gauge
// set's snapshot once, however many of its gauges it encodes, and the
// gauges of one exposition read the same snapshot — also while other
// expositions run concurrently.
func TestGaugeSetOneSnapshotPerExposition(t *testing.T) {
	type snap struct{ n, double int64 }
	var calls atomic.Int64
	r := NewRegistry()
	GaugeSet(r, func() snap { n := calls.Add(1); return snap{n, 2 * n} },
		SetGauge[snap]{Name: "repro_n", Help: "snapshot count", Value: func(s snap) float64 { return float64(s.n) }},
		SetGauge[snap]{Name: "repro_b", Help: "twice n", Value: func(s snap) float64 { return float64(s.double) }},
		SetGauge[snap]{Name: "repro_z", Help: "twice n again", Value: func(s snap) float64 { return float64(s.double) }},
	)
	r.Gauge("repro_m", "a plain gauge sorted between the set's", func() float64 { return 5 })

	const want = `# HELP repro_b twice n
# TYPE repro_b gauge
repro_b 2
# HELP repro_m a plain gauge sorted between the set's
# TYPE repro_m gauge
repro_m 5
# HELP repro_n snapshot count
# TYPE repro_n gauge
repro_n 1
# HELP repro_z twice n again
# TYPE repro_z gauge
repro_z 2
`
	if got := string(r.AppendProm(nil)); got != want {
		t.Fatalf("exposition:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("one AppendProm took %d snapshots, want 1", n)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var n, b, z float64
				for _, line := range strings.Split(string(r.AppendProm(nil)), "\n") {
					for name, v := range map[string]*float64{"repro_n ": &n, "repro_b ": &b, "repro_z ": &z} {
						if rest, ok := strings.CutPrefix(line, name); ok {
							*v, _ = strconv.ParseFloat(rest, 64)
						}
					}
				}
				if b != 2*n || z != 2*n {
					t.Errorf("one exposition mixed snapshots: n %v, b %v, z %v", n, b, z)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1+4*200 {
		t.Fatalf("%d expositions took %d snapshots", 1+4*200, n)
	}
}
