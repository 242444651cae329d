package cmap

// Optional latency and probe-depth instrumentation. The map carries a
// single *Metrics pointer; when nil (the default) the hot paths pay
// exactly one predictable branch per operation. When attached, Get
// and Put time a 1-in-64 sample of operations — two clock reads cost
// ~50ns, which full timing would put on every ~90ns Get, blowing the
// 5% overhead budget the benchmarks pin — while GetBatch times every
// call (two clock reads amortize over the whole batch). Get and GetBatch
// record the probe depth of each hit in that sample.
//
// The sample is selected by the operation's own SipHash digest
// (digest & sampleMask == 0): unbiased across keys, deterministic per
// key, and free — routing already computed the digest.

import "repro/internal/obs"

// sampleMask selects the timed sample: operations whose digest's low
// six bits are zero, i.e. 1 in 64.
const sampleMask = 63

// Metrics is the map's optional observability hook. Every field must
// be non-nil when attached (use NewMetrics); the histograms record
// nanoseconds except ProbeDepth, which records the candidate index
// that resolved a sampled Get or GetBatch hit — the paper's
// which-choice-held distribution: 0..d-1 for bucket hits, d for a stash
// hit, and offsets past d for hits probed through a resize's new
// geometry.
type Metrics struct {
	GetNanos   *obs.Histogram // sampled Get wall latency
	PutNanos   *obs.Histogram // sampled Put wall latency
	BatchNanos *obs.Histogram // whole-call GetBatch wall latency
	ProbeDepth *obs.Histogram // candidate index resolving sampled Get and GetBatch hits
}

// NewMetrics returns a Metrics with every instrument allocated.
func NewMetrics() *Metrics {
	return &Metrics{
		GetNanos:   new(obs.Histogram),
		PutNanos:   new(obs.Histogram),
		BatchNanos: new(obs.Histogram),
		ProbeDepth: new(obs.Histogram),
	}
}

// SetMetrics attaches mx to the map (nil detaches). Attach before the
// map sees concurrent traffic: the pointer is read unsynchronized on
// the hot paths.
func (m *Map[K, V]) SetMetrics(mx *Metrics) { m.metrics = mx }

// Metrics returns the attached instrumentation, nil if none.
func (m *Map[K, V]) Metrics() *Metrics { return m.metrics }

// sampledGet is the timed Get variant the sampler routes 1-in-64
// lookups through. It runs the same seqlock probe as every Get, which
// reports the probe depth alongside the value, so a single operation
// yields both the latency and the probe-depth observation.
//
//repro:digestcarried
//repro:noalloc
func (m *Map[K, V]) sampledGet(mx *Metrics, sh *shard[K, V], tag uint64, key K) (V, bool) {
	start := obs.NowNanos()
	v, depth, ok := m.getRouted(sh, tag, key)
	mx.GetNanos.Record(obs.NowNanos() - start)
	if ok {
		mx.ProbeDepth.Record(int64(depth))
	}
	return v, ok
}
