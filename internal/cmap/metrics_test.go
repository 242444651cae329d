package cmap

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMetricsSampling: with Metrics attached, the digest-selected
// 1-in-64 sample must populate the latency and probe-depth
// histograms, every GetBatch call must be timed, and results must be
// identical to the uninstrumented map's.
func TestMetricsSampling(t *testing.T) {
	m := newU64(Config{Shards: 2, BucketsPerShard: 256, SlotsPerBucket: 4, D: 3, Seed: 21, MaxLoadFactor: 0.9})
	mx := NewMetrics()
	m.SetMetrics(mx)
	if m.Metrics() != mx {
		t.Fatal("Metrics() did not return the attached instrumentation")
	}

	const n = 4096 // ~64 sampled ops in expectation
	for k := uint64(1); k <= n; k++ {
		if !m.Put(k, k+7) {
			t.Fatalf("Put(%d) rejected", k)
		}
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := m.Get(k); !ok || v != k+7 {
			t.Fatalf("instrumented Get(%d) = (%d, %v)", k, v, ok)
		}
	}
	keys := make([]uint64, 128)
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	const batchCalls = 5
	for c := 0; c < batchCalls; c++ {
		if hits := m.GetBatch(keys, vals, found); hits != len(keys) {
			t.Fatalf("instrumented GetBatch hit %d of %d", hits, len(keys))
		}
	}

	var s obs.HistSnapshot
	snap := func(h *obs.Histogram) uint64 { h.Snapshot(&s); return s.Count }
	if c := snap(mx.GetNanos); c == 0 {
		t.Error("no Get latency samples recorded across 4096 lookups")
	}
	if c := snap(mx.PutNanos); c == 0 {
		t.Error("no Put latency samples recorded across 4096 stores")
	}
	if c := snap(mx.BatchNanos); c != batchCalls {
		t.Errorf("BatchNanos recorded %d calls, want %d", c, batchCalls)
	}
	mx.ProbeDepth.Snapshot(&s)
	if s.Count == 0 {
		t.Error("no probe depths recorded")
	}
	if maxDepth := s.Quantile(1); maxDepth > uint64(2*m.D()+1) {
		t.Errorf("probe depth %d exceeds the dual-geometry bound %d", maxDepth, 2*m.D()+1)
	}

	// Sampling is digest-keyed: the same key re-read must hit the same
	// verdict, so two equal read sweeps double the sample count exactly.
	mx.GetNanos.Snapshot(&s)
	before := s.Count
	for k := uint64(1); k <= n; k++ {
		m.Get(k)
	}
	mx.GetNanos.Snapshot(&s)
	if s.Count != 2*before {
		t.Errorf("second identical sweep recorded %d samples, want %d (deterministic digest sampling)", s.Count-before, before)
	}
}

// TestMetricsDetached: a nil Metrics (the default) must keep every
// path working and record nothing anywhere.
func TestMetricsDetached(t *testing.T) {
	m := newU64(Config{Shards: 2, BucketsPerShard: 64, SlotsPerBucket: 4, D: 2, Seed: 3})
	if m.Metrics() != nil {
		t.Fatal("fresh map has metrics attached")
	}
	for k := uint64(1); k <= 500; k++ {
		m.Put(k, k)
	}
	for k := uint64(1); k <= 500; k++ {
		if v, ok := m.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
		}
	}
}

// TestNowNanosMonotone: the sampler's clock, obs.NowNanos, must never
// run backwards (it is a monotonic-clock difference, not wall time).
func TestNowNanosMonotone(t *testing.T) {
	a := obs.NowNanos()
	time.Sleep(time.Millisecond)
	b := obs.NowNanos()
	if b <= a {
		t.Fatalf("obs.NowNanos went %d -> %d", a, b)
	}
}
