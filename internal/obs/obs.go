// Package obs is the repository's stdlib-only metrics layer: striped
// atomic counters, pull/push gauges, and fixed-bucket log-linear
// latency histograms with mergeable snapshots, exposed through a
// Registry that encodes Prometheus text exposition.
//
// The package exists to observe the hot paths this repository is about
// — the seqlock read path, the WAL group commit, the server's burst
// coalescing — so every recording primitive is built to be safe to
// call from those paths: Counter.Add, Gauge.Set and Histogram.Record
// are lock-free, allocation-free (`//repro:noalloc`, pinned by
// AllocsPerRun tests and the reprolint analyzer) and race-clean
// (everything goes through sync/atomic). Reading is the slow side:
// Load sums stripes, Snapshot copies the whole bucket array, and the
// Registry serializes exposition under a mutex.
//
// Histograms are HDR-style log-linear: values are bucketed by power of
// two (octave) with 2^subBits linear sub-buckets per octave, bounding
// the relative quantile error by 2^-subBits (~3.1%) at any magnitude
// from 1 to 2^63. Snapshots are plain arrays — mergeable across
// shards, workers or processes by bucket-wise addition — and quantiles
// are answered from the snapshot, never from the live histogram.
package obs

import (
	"sync/atomic"
	"time"
)

// baseTime anchors NowNanos's monotonic clock.
var baseTime = time.Now()

// NowNanos reads the monotonic clock as plain nanoseconds, so timed
// paths carry int64s instead of time.Time structs. Only the difference
// of two readings means anything: that difference is what a latency
// Histogram records.
//
//repro:noalloc
func NowNanos() int64 { return time.Since(baseTime).Nanoseconds() }

// Gauge is a settable instantaneous value (queue depth, backlog,
// active connections). For values that are naturally derived from
// existing structures (map length, occupancy), prefer registering a
// pull gauge on the Registry instead of maintaining a Gauge by hand.
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
//
//repro:noalloc
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
//
//repro:noalloc
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
//
//repro:noalloc
func (g *Gauge) Load() int64 { return g.v.Load() }
