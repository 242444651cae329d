package persist

// Optional WAL instrumentation. The log carries a single *WALMetrics in
// its options; when nil (the default) no timed path pays more than a
// pointer check. Appends are on the microsecond-to-millisecond scale
// (a frame write, usually an fsync wait), so unlike the map's sampled
// nanosecond paths every operation is recorded in full.

import "repro/internal/obs"

// WALMetrics is the write-ahead log's observability hook. Every field
// must be non-nil when attached (use NewWALMetrics).
type WALMetrics struct {
	// AppendNanos is the full Append wall latency — frame encode, file
	// write, and (unless NoSync) the group-commit wait for the fsync
	// that covers the record. Rejected and poisoned appends are timed
	// too: a caller blocked on them regardless.
	AppendNanos *obs.Histogram
	// FsyncNanos times each physical fsync issued by the group-commit
	// flusher or an explicit Sync.
	FsyncNanos *obs.Histogram
	// CommitBatch records how many appended records each successful
	// group-commit fsync newly made durable — the batching win: under
	// concurrent writers one fsync covers many appends. A Sync's fsync
	// records its batch too; one that made no new record durable
	// records nothing.
	CommitBatch *obs.Histogram
	// Appends counts records acknowledged (successfully appended).
	Appends *obs.Counter
	// Poisoned counts sticky-error stores: write or fsync failures that
	// switched the WAL into its refuse-all-appends state. Zero in any
	// healthy process; nonzero is an alarm, not a rate.
	Poisoned *obs.Counter
	// ReplayRecords counts records replayed by OpenWAL recoveries.
	ReplayRecords *obs.Counter
	// ReplayTorn counts OpenWAL recoveries that truncated a torn tail —
	// crash-cut bytes past the last intact record, at least one of them
	// non-zero. A tail of zeros alone is the zero-filled region a killed
	// log leaves, and is truncated without being counted.
	ReplayTorn *obs.Counter
}

// NewWALMetrics returns a WALMetrics with every instrument allocated.
func NewWALMetrics() *WALMetrics {
	return &WALMetrics{
		AppendNanos:   new(obs.Histogram),
		FsyncNanos:    new(obs.Histogram),
		CommitBatch:   new(obs.Histogram),
		Appends:       new(obs.Counter),
		Poisoned:      new(obs.Counter),
		ReplayRecords: new(obs.Counter),
		ReplayTorn:    new(obs.Counter),
	}
}
