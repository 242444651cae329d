package repro

// This file is the durability facade: snapshot Save/Load for Map, and
// Open — the crash-recoverable map (latest snapshot + write-ahead log
// replay + fresh WAL appends).
//
// A snapshot is (key bytes, value bytes, 64-bit digest) records. The
// digest is the same single keyed hash evaluation every live operation
// spends, and candidates re-derive from it at any table shape, so a
// snapshot written by one geometry reloads into any other — more
// shards, fewer buckets, whatever the new process chose — without ever
// re-hashing a key. The seed (recorded in the snapshot header and
// adopted by Load) and the hasher are the only things that must carry
// across; geometry is free.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cmap"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/persist"
)

// Codec translates keys or values to and from their persisted byte
// encoding — the persistence counterpart of Hasher. Append appends v's
// encoding to dst; Decode reads a value back from exactly those bytes,
// erroring (never panicking) on malformed input. See CodecFor for the
// built-ins; a custom Codec is just a struct literal with the two
// functions.
type Codec[T any] = keyed.Codec[T]

// CodecFor returns the built-in Codec for T, mirroring HasherFor's
// selection: explicit little-endian encodings for integer, float and
// bool kinds, verbatim bytes for string kinds, and the in-memory byte
// view for fixed-size pointer-free arrays and structs (native
// endianness — see internal/keyed.ViewCodec for the caveats). It panics
// for types holding addresses (pointers, slices, maps, interfaces,
// ...); supply a custom Codec for those.
func CodecFor[T any]() Codec[T] { return keyed.CodecFor[T]() }

// Save writes a snapshot of m to w using K's and V's built-in codecs
// (panics for types without one — use SaveWith to supply codecs). The
// snapshot is per-shard consistent and holds each shard's read lock only
// while that shard's section is encoded.
func Save[K comparable, V any](w io.Writer, m *Map[K, V]) error {
	return SaveWith(w, m, CodecFor[K](), CodecFor[V]())
}

// SaveWith is Save with explicit codecs.
func SaveWith[K comparable, V any](w io.Writer, m *Map[K, V], kc Codec[K], vc Codec[V]) error {
	return m.Snapshot(w, kc, vc)
}

// Load reads a Map snapshot from r into a fresh map at whatever
// geometry the options describe — the snapshot's own geometry is
// irrelevant: records place by re-deriving candidates from their stored
// digests, the resize-migration path run as a loader. The snapshot's
// seed overrides WithSeed (digests are functions of it); the hasher
// must be the one the snapshot was written under (verified against the
// first record). With growth enabled (the default) any content fits;
// with WithMaxLoadFactor(0) a snapshot larger than the fixed geometry
// fails the load. K and V follow NewMap's type rule; Load panics for any
// other type.
//
// Options consumed: those of NewMap.
func Load[K comparable, V any](r io.Reader, opts ...Option) (*Map[K, V], error) {
	return LoadOf[K, V](r, HasherFor[K](), CodecFor[K](), CodecFor[V](), opts...)
}

// LoadOf is Load with an explicit hasher and codecs. K and V follow
// NewMap's type rule; LoadOf panics for any other type.
func LoadOf[K comparable, V any](r io.Reader, h Hasher[K], kc Codec[K], vc Codec[V], opts ...Option) (*Map[K, V], error) {
	// The snapshot header's seed overrides the options'.
	return cmap.LoadKeyed[K, V](r, h, kc, vc, buildOptions(opts).config())
}

// DurableMetrics is the durable map's observability hook, attached at
// Open via WithDurableMetrics. Every field must be non-nil when
// attached (use NewDurableMetrics).
type DurableMetrics struct {
	// WAL receives the write-ahead log's instruments: append/fsync
	// latency, group-commit batch sizes, sticky-poison events, and the
	// recovery replay totals from this Open.
	WAL *persist.WALMetrics
	// CheckpointNanos times each successful Checkpoint end to end —
	// snapshot encode, fsync, rename, directory sync, WAL reset.
	CheckpointNanos *obs.Histogram
	// CheckpointBytes records each successful checkpoint's snapshot
	// size in bytes (pre-rename, as encoded).
	CheckpointBytes *obs.Histogram
}

// NewDurableMetrics returns a DurableMetrics with every instrument
// allocated.
func NewDurableMetrics() *DurableMetrics {
	return &DurableMetrics{
		WAL:             persist.NewWALMetrics(),
		CheckpointNanos: new(obs.Histogram),
		CheckpointBytes: new(obs.Histogram),
	}
}

// Snapshot and WAL file names inside a DurableMap directory.
const (
	snapshotFile    = "snapshot"
	snapshotTmpFile = "snapshot.tmp"
	walFile         = "wal"
)

// DurableMap is a crash-recoverable Map: every Put and Delete is
// appended to a write-ahead log before it is applied, a Checkpoint
// writes a snapshot and resets the log, and Open recovers by loading
// the latest snapshot and replaying the log — at whatever geometry the
// new process chose. With fsync enabled (the default) an acknowledged
// write survives power loss; a crash loses only writes whose Put/Delete
// had not returned.
//
// All methods are safe for concurrent use. Writes to different keys
// proceed in parallel (the WAL group-commits concurrent appends into
// shared fsyncs); writes to the same key are serialized through a
// stripe lock so the log's order always matches the map's — recovery
// can never resurrect a superseded value. Checkpoint briefly excludes
// writers — readers never block.
type DurableMap[K comparable, V any] struct {
	//repro:lockclass durable-map 10
	mu       sync.RWMutex // writers share it; Checkpoint excludes them
	m        *Map[K, V]
	wal      *persist.WAL
	kc       Codec[K]
	vc       Codec[V]
	dir      string
	metrics  *DurableMetrics // nil unless WithDurableMetrics was given
	recovery Recovery        // how Open recovered the map
	buf      sync.Pool       // *walScratch: per-append encode buffers
	// stripes serialize the WAL-append + map-apply pair per key (striped
	// by the key's map digest): without it, two racing writes to the
	// same key could land in the WAL in one order and in the map in the
	// other, and recovery would resurrect the superseded value. Writes
	// to different keys almost always take different stripes and stay
	// concurrent (the WAL group-commits them into shared fsyncs).
	stripes [durableStripes]sync.Mutex
}

// durableStripes is the per-key ordering stripe count (power of two).
const durableStripes = 256

// Recovery describes how Open recovered a DurableMap.
type Recovery struct {
	// SnapshotLoad is the time Open took to load the snapshot, its
	// presizing count included; 0 with no snapshot.
	SnapshotLoad time.Duration
	// WALReplay is the time it took to replay the WAL over it.
	WALReplay time.Duration
	// Workers is the number of goroutines that placed the records: 1
	// when Open placed them itself, as it does for a small recovery.
	Workers int
}

// errReplayRejected is the error of a logged Put the map rejected.
var errReplayRejected = errors.New("repro: WAL replay rejected a Put")

type walScratch struct{ k, v []byte }

// stripe returns the ordering lock for a key, given its map digest —
// the operation's one keyed hash, which the map's write then carries. It
// is the annotated accessor for the stripe lock class: a local taken
// from it carries the class to its Lock call.
//
//repro:lockclass durable-stripe 20
func (s *DurableMap[K, V]) stripe(digest uint64) *sync.Mutex {
	return &s.stripes[digest&(durableStripes-1)]
}

// Open opens (or creates) the durable map stored in dir: it loads
// dir/snapshot if present, replays dir/wal over it (truncating any torn
// tail a crash left), and returns a map ready for durable writes. The
// shape options (shards, slots, d, stash, growth) describe the map
// *this* process wants — recovery places the snapshot's records at the
// new shape, so a restart is also the moment to reshape. The bucket
// count follows the records instead: recovery sizes each shard for the
// records it counts (see recoveryBuckets), and WithBuckets sizes only a
// map that starts empty or from a WAL alone. Growth must be enabled (it
// is by default): replay must never hit a capacity rejection. K and V
// follow NewMap's type rule; Open panics for any other type.
//
// The snapshot load and the WAL replay run through one recovery
// pipeline (cmap.Loader). A small recovery is placed by Open itself;
// past a quota of records, min(GOMAXPROCS, shard count) workers place
// them, each owning a share of the shards and placing its shards'
// records in file order, so the recovered map is the one a serial
// replay builds. Every worker has exited when Open returns, on every
// path; Recovery reports the two phases' times and the worker count.
//
// Options consumed: those of NewMap, plus WithWALSync.
func Open[K comparable, V any](dir string, opts ...Option) (*DurableMap[K, V], error) {
	return OpenOf[K, V](dir, HasherFor[K](), CodecFor[K](), CodecFor[V](), opts...)
}

// OpenOf is Open with an explicit hasher and codecs. K and V follow
// NewMap's type rule; OpenOf panics for any other type. The codecs may
// decode views of the bytes they are given: the snapshot load and the
// WAL replay both decode each record from copies that live until the
// record is placed. A WAL record's key is decoded twice, once to hash
// it and once from its copy.
func OpenOf[K comparable, V any](dir string, h Hasher[K], kc Codec[K], vc Codec[V], opts ...Option) (*DurableMap[K, V], error) {
	o := buildOptions(opts)
	if o.maxLoad == 0 {
		return nil, errors.New("repro: Open requires online growth (WithMaxLoadFactor > 0), or WAL replay could hit a capacity rejection")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A snapshot.tmp is a checkpoint a crash interrupted before its
	// rename — never valid, always safe to discard.
	os.Remove(filepath.Join(dir, snapshotTmpFile))

	cfg := o.config()
	start := time.Now()
	var rec Recovery
	var ld *cmap.Loader[K, V]
	if f, err := os.Open(filepath.Join(dir, snapshotFile)); err == nil {
		cfg.BucketsPerShard = recoveryBuckets(f, filepath.Join(dir, walFile), cfg)
		ld, err = cmap.LoadSnapshot[K, V](f, h, kc, vc, cfg)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("repro: loading %s: %w", snapshotFile, err)
		}
		rec.SnapshotLoad = time.Since(start)
	} else if os.IsNotExist(err) {
		ld = cmap.NewLoader(cmap.NewKeyed[K, V](h, cfg))
	} else {
		return nil, err
	}

	var walMx *persist.WALMetrics
	if o.durableMetrics != nil {
		walMx = o.durableMetrics.WAL
	}
	m := ld.Map()
	start = time.Now()
	wal, _, err := persist.OpenWAL(filepath.Join(dir, walFile), persist.WALOptions{NoSync: o.walNoSync, Metrics: walMx},
		func(op persist.WALOp, kb, vb []byte) error {
			key, err := kc.Decode(kb)
			if err != nil {
				return err
			}
			// The record's one hash. The scan reuses kb and vb's buffer
			// at its next record, while the record may wait in a window
			// until its worker places it: decode what the map receives
			// from copies that live as long as the window.
			digest := cmap.Digest(m, key)
			if key, err = kc.Decode(ld.Keep(digest, kb)); err != nil {
				return err
			}
			placed := true
			switch op {
			case persist.WALPut:
				val, err := vc.Decode(ld.Keep(digest, vb))
				if err != nil {
					return err
				}
				placed = ld.Put(digest, key, val)
			case persist.WALDelete:
				placed = ld.Delete(digest, key)
			}
			if !placed {
				return errReplayRejected
			}
			return nil
		})
	if placed := ld.Close(); err == nil && !placed {
		wal.Close()
		err = errReplayRejected
	}
	if err != nil {
		return nil, fmt.Errorf("repro: recovering %s: %w", walFile, err)
	}
	rec.WALReplay = time.Since(start)
	rec.Workers = ld.Workers()
	s := &DurableMap[K, V]{m: m, wal: wal, kc: kc, vc: vc, dir: dir, metrics: o.durableMetrics, recovery: rec}
	s.buf.New = func() any { return &walScratch{} }
	return s, nil
}

// recoveryBuckets returns the buckets per shard recovery starts at:
// cmap.BucketsFor's presize for the snapshot's records plus the WAL's
// Puts, the smallest geometry whose watermark holds them all, so every
// record is placed once and no shard resizes while they load. It depends
// on that count alone, not on cfg.BucketsPerShard: a small snapshot
// recovers into a small map, which the watermark grows as new keys
// arrive. Placement is a function of each record's digest, not of the
// table's history, so nothing is lost by skipping the doublings. The
// snapshot's count comes from its section headers, the WAL's from a
// counting replay; the WAL's share is capped at the snapshot's, so a log
// of overwrites presizes for at most twice the snapshot. An empty
// snapshot, or any error, keeps cfg's geometry: the load and the replay
// that follow report the error.
func recoveryBuckets(snap *os.File, walPath string, cfg cmap.Config) int {
	st, err := snap.Stat()
	if err != nil {
		return cfg.BucketsPerShard
	}
	records, err := persist.SnapshotRecords(snap, st.Size())
	if err != nil {
		return cfg.BucketsPerShard
	}
	var puts int64
	persist.ReplayWAL(walPath, func(op persist.WALOp, _, _ []byte) error {
		if op == persist.WALPut {
			puts++
		}
		return nil
	})
	return cmap.BucketsFor(cfg, int(records+min(puts, records)))
}

// Put durably stores key → val: the write is acknowledged only after
// its WAL record is on stable storage (group-committed with concurrent
// writers), then applied to the map.
//
//repro:poisons WAL.Append
func (s *DurableMap[K, V]) Put(key K, val V) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sc := s.buf.Get().(*walScratch)
	sc.k = s.kc.Append(sc.k[:0], key)
	sc.v = s.vc.Append(sc.v[:0], val)
	digest := cmap.Digest(s.m, key)
	st := s.stripe(digest)
	st.Lock()
	err := s.wal.Append(persist.WALPut, sc.k, sc.v)
	var applied bool
	if err == nil {
		applied = cmap.PutDigest(s.m, digest, key, val)
	}
	st.Unlock()
	s.buf.Put(sc)
	if err != nil {
		return err
	}
	if !applied {
		// Unreachable with growth enabled (Open enforces it); surfaced
		// rather than swallowed in case a future geometry disables it.
		return errors.New("repro: map rejected a logged Put")
	}
	return nil
}

// Delete durably removes key, reporting whether it was present. The
// delete is logged (and acknowledged durable) before it is applied;
// deletes of absent keys are logged too — replay is idempotent.
//
//repro:poisons WAL.Append
func (s *DurableMap[K, V]) Delete(key K) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sc := s.buf.Get().(*walScratch)
	sc.k = s.kc.Append(sc.k[:0], key)
	digest := cmap.Digest(s.m, key)
	st := s.stripe(digest)
	st.Lock()
	err := s.wal.Append(persist.WALDelete, sc.k, nil)
	var present bool
	if err == nil {
		present = cmap.DeleteDigest(s.m, digest, key)
	}
	st.Unlock()
	s.buf.Put(sc)
	if err != nil {
		return false, err
	}
	return present, nil
}

// Get returns the value stored for key. Reads never touch the WAL and
// never block on Checkpoint.
func (s *DurableMap[K, V]) Get(key K) (V, bool) { return s.m.Get(key) }

// GetBatch resolves keys[i] → (vals[i], found[i]) through the map's
// pipelined batched lookup tier, returning the number found. Reads are
// not logged, so the durable wrapper adds nothing — see Map.GetBatch
// for the phased-probe semantics. This is the entry point the network
// front-end's per-connection read batching feeds.
func (s *DurableMap[K, V]) GetBatch(keys []K, vals []V, found []bool) int {
	return s.m.GetBatch(keys, vals, found)
}

// Len returns the number of stored pairs.
func (s *DurableMap[K, V]) Len() int { return s.m.Len() }

// Stats takes the underlying map's occupancy snapshot.
func (s *DurableMap[K, V]) Stats() ContainerStats { return s.m.Stats() }

// Recovery reports how Open recovered the map.
func (s *DurableMap[K, V]) Recovery() Recovery { return s.recovery }

// Err reports the WAL's sticky poison error, nil while the log is
// healthy — the readiness signal: a poisoned WAL refuses every durable
// write until a successful Checkpoint heals it.
func (s *DurableMap[K, V]) Err() error { return s.wal.Err() }

// Range iterates the underlying map (per-shard consistent; fn must not
// call the map back — see Map.Range).
func (s *DurableMap[K, V]) Range(fn func(key K, val V) bool) { s.m.Range(fn) }

// Map returns the underlying concurrent map for read-side integration.
// Writing to it directly bypasses the WAL — those writes would not
// survive a crash.
func (s *DurableMap[K, V]) Map() *Map[K, V] { return s.m }

// Checkpoint writes a new snapshot (atomically: temp file, fsync,
// rename) and resets the WAL, bounding recovery time. Writers are
// excluded for the duration; readers proceed. Crash-safe at every step:
// before the rename the old snapshot + full WAL recover, after it the
// new snapshot + (possibly still unreset) WAL recover — replaying a
// WAL the snapshot already covers is idempotent.
func (s *DurableMap[K, V]) Checkpoint() error {
	dm := s.metrics
	if dm == nil {
		_, err := s.checkpoint()
		return err
	}
	start := time.Now()
	n, err := s.checkpoint()
	if err == nil {
		dm.CheckpointNanos.Record(time.Since(start).Nanoseconds())
		dm.CheckpointBytes.Record(n)
	}
	return err
}

// checkpoint is Checkpoint's body, reporting the snapshot's encoded
// byte size on success.
//
//repro:poisons os.Remove
func (s *DurableMap[K, V]) checkpoint() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := filepath.Join(s.dir, snapshotTmpFile)
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	bw := bufio.NewWriterSize(cw, 1<<20)
	if err := s.m.Snapshot(bw, s.kc, s.vc); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotFile)); err != nil {
		// Without this removal the fully-written tmp would sit in the
		// directory until the next Open; it is never valid state (only the
		// rename publishes a snapshot), so it must not outlive the error.
		os.Remove(tmp)
		return 0, err
	}
	if err := persist.SyncDir(s.dir); err != nil {
		return 0, err
	}
	return cw.n, s.wal.Reset()
}

// countingWriter counts the bytes passing through to w — the
// checkpoint-size instrument.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Sync forces an fsync of the WAL — useful with WithWALSync(false) to
// establish a durability point manually.
func (s *DurableMap[K, V]) Sync() error { return s.wal.Sync() }

// Close fsyncs and closes the WAL. The map remains readable; further
// durable writes require a fresh Open.
func (s *DurableMap[K, V]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.Close()
}
