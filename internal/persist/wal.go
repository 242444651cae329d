package persist

// The write-ahead log: an append-only file of CRC-framed Put/Delete
// records with group-commit fsync batching, modeled on the append-only
// durability discipline of audit-log systems — a record is acknowledged
// only once it is on stable storage, and recovery truncates any torn
// tail a crash left behind.
//
// Layout (all integers little-endian):
//
//	header (16 bytes):
//	  magic    [8]byte  "BADHWAL1"
//	  version  uint16   format version (1)
//	  reserved [6]byte  zero
//
//	record:
//	  length uint32   payload byte length
//	  crc    uint32   CRC32-C of the payload
//	  payload:
//	    op     uint8    1 = Put, 2 = Delete
//	    keyLen uvarint | key bytes
//	    valLen uvarint | val bytes   (Put only)
//
// While the log is open, zeros may follow the last record: the appender
// keeps up to walZeroChunk zero bytes written ahead of its end, so a
// record overwrites blocks the file already holds and the file's size
// changes once per chunk, not once per record. An fsync then has data
// to flush but no size change to commit through the filesystem's
// journal. Close truncates the zeros, so a cleanly closed log ends at
// its last record; after a crash they are still there, and recovery
// truncates them.
//
// Recovery scans records until EOF, a short read, a zero length, or a
// CRC mismatch; everything from the first bad frame on is discarded and
// truncated. It is a torn tail — the bytes a crash cut mid-write — when
// any of it is non-zero; zeros alone are the unused region. Only
// unacknowledged appends can live there: group commit returns to the
// caller only after the record's bytes are fsynced.
//
// The header is fsynced before any append can run, so a crash between
// the log's create and that fsync leaves a file that never held a
// record: zeros throughout, or a prefix of the header. Recovery starts
// such a log afresh. Any other bad header is refused as corrupt.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

const (
	walMagic      = "BADHWAL1"
	walHeaderSize = 16

	// maxWALRecordBytes bounds one framed payload; the recovery scan
	// treats a larger length prefix as a torn/corrupt tail rather than
	// allocating it.
	maxWALRecordBytes = 2*MaxRecordBytes + 16

	// walZeroChunk is how far each extension of the zero-filled region
	// reaches past the region's end.
	walZeroChunk = 64 << 10
)

// walZeros is the chunk the appender writes to extend the zero-filled
// region, and what recovery compares a discarded tail against.
var walZeros [walZeroChunk]byte

// WALOp is the operation a WAL record logs.
type WALOp uint8

const (
	// WALPut logs a Put(key, val).
	WALPut WALOp = 1
	// WALDelete logs a Delete(key).
	WALDelete WALOp = 2
)

// String returns the op's display name.
func (op WALOp) String() string {
	switch op {
	case WALPut:
		return "Put"
	case WALDelete:
		return "Delete"
	default:
		return fmt.Sprintf("WALOp(%d)", uint8(op))
	}
}

// WALOptions configure durability.
type WALOptions struct {
	// NoSync disables fsync: Append returns once the record reaches the
	// OS, trading the crash-durability guarantee for raw throughput
	// (power loss can drop acknowledged writes; process crash cannot).
	// With NoSync false — the default — Append blocks until the record
	// is on stable storage, and concurrent appenders share fsyncs via
	// group commit: while one fsync is in flight, later appends queue
	// behind it and are all made durable by the next one.
	NoSync bool

	// Metrics, when non-nil, receives append/fsync latencies, commit
	// batch sizes, poison events, and replay totals. See WALMetrics.
	Metrics *WALMetrics
}

// walFile is the file surface the WAL writes through. *os.File
// satisfies it; tests substitute failing shims to prove the
// error-poisoning contract (a durability failure must stick — see err
// below) and a recorder to replay crashes. Every write names its
// offset, so the file must not be opened O_APPEND: (*os.File).WriteAt
// refuses such a file, and Linux's pwrite would ignore the offset. The
// state-changing methods are //repro:durable: fsyncorder requires every
// caller in a //repro:poisons function to poison (or consult) the
// sticky error on each path where one of them fails.
type walFile interface {
	//repro:durable
	WriteAt(p []byte, off int64) (int, error)
	//repro:durable
	Sync() error
	//repro:durable
	Truncate(size int64) error
	Close() error
}

// WAL is an append-only write-ahead log. Append is safe for concurrent
// use; one mutex orders the record frames and guards the group-commit
// state, and commit batches the fsyncs.
type WAL struct {
	opts WALOptions

	//repro:lockclass wal 40
	mu      sync.Mutex // guards every field below
	cond    *sync.Cond // on mu: broadcast when commit's fsync ends
	f       walFile
	scratch []byte
	seq     uint64 // records appended
	durable uint64 // highest seq known fsynced
	syncing bool   // commit's fsync is in flight, with mu released
	end     int64  // the log's end: the offset just past its last record
	// zeroEnd is the end of the zero-filled region [end, zeroEnd), the
	// file's length while the log is healthy.
	zeroEnd int64
	// err is sticky: after a failed write, the torn bytes it left
	// mid-log would make the next recovery's torn-tail truncation
	// silently discard any record appended after them; after a failed
	// fsync, the kernel may have dropped the dirty pages it could not
	// write, and a later successful fsync does not bring them back.
	// Either way the WAL refuses every further append and sync rather
	// than acknowledge writes that cannot survive a crash.
	err error
}

// corruptWALError is a WAL integrity failure: its message names the
// log, and it wraps ErrCorrupt.
type corruptWALError string

func (e corruptWALError) Error() string { return "persist: corrupt WAL: " + string(e) }
func (corruptWALError) Unwrap() error   { return ErrCorrupt }

// CreateWAL creates (or truncates) the log at path and writes its header.
func CreateWAL(path string, opts WALOptions) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := newWAL(f, opts)
	if err := w.create(path); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// OpenWAL opens the log at path, creating it if absent, replaying every
// intact record through replay in append order, truncating whatever
// follows the last one (a torn tail or the zero-filled region), and
// positioning for appends. An empty log, or one whose header a crash
// left unwritten (see unwritten), gets a fresh header. It returns the
// recovered WAL and the number of records replayed. A replay error
// aborts the open (the caller's state would be inconsistent).
func OpenWAL(path string, opts WALOptions, replay func(op WALOp, key, val []byte) error) (*WAL, int, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	w := newWAL(f, opts)
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	fresh, err := unwritten(f, st.Size())
	if err == nil && fresh {
		if err = f.Truncate(0); err == nil {
			err = w.create(path)
		}
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	if fresh {
		return w, 0, nil
	}
	n, good, err := scanWAL(f, replay)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	torn := false
	if good < st.Size() {
		// Everything before good was acknowledged and replays. What
		// follows is the zero-filled region a crash left, or a torn tail
		// when a crash cut the final record mid-write; both are discarded.
		if torn, err = tornTail(f, good, st.Size()); err != nil {
			f.Close()
			return nil, 0, err
		}
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, 0, err
		}
	}
	w.seq = uint64(n)
	w.durable = uint64(n)
	w.end, w.zeroEnd = good, good
	if mx := opts.Metrics; mx != nil {
		mx.ReplayRecords.Add(int64(n))
		if torn {
			mx.ReplayTorn.Inc()
		}
	}
	return w, n, nil
}

// ReplayWAL reads the log at path without opening it for appends,
// calling replay for every intact record. It reports the record count
// and whether a torn tail was skipped: a non-zero byte past the last
// intact record, where zeros alone are the region an open or crashed
// log keeps ahead of its end. The file is left untouched.
func ReplayWAL(path string, replay func(op WALOp, key, val []byte) error) (records int, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	n, good, err := scanWAL(f, replay)
	if err != nil {
		return n, false, err
	}
	torn, err = tornTail(f, good, st.Size())
	return n, torn, err
}

// unwritten reports whether the size-byte log r holds what a crash
// between the log's create and its header's fsync can leave, and no
// more: nothing, zeros throughout, or a proper prefix of the header
// writeHeader writes. No record was ever appended to such a log.
func unwritten(r io.ReaderAt, size int64) (bool, error) {
	var hdr [walHeaderSize]byte
	n := min(size, walHeaderSize)
	if _, err := r.ReadAt(hdr[:n], 0); err != nil {
		return false, err
	}
	if want := walHeader(); n < walHeaderSize && bytes.Equal(hdr[:n], want[:n]) {
		return true, nil
	}
	if hdr != [walHeaderSize]byte{} {
		return false, nil
	}
	nonzero, err := tornTail(r, n, size)
	return !nonzero, err
}

// tornTail reports whether any byte of r in [from, to) is non-zero.
func tornTail(r io.ReaderAt, from, to int64) (bool, error) {
	buf := make([]byte, min(to-from, walZeroChunk))
	for from < to {
		b := buf[:min(to-from, int64(len(buf)))]
		if _, err := r.ReadAt(b, from); err != nil {
			return false, err
		}
		if !bytes.Equal(b, walZeros[:len(b)]) {
			return true, nil
		}
		from += int64(len(b))
	}
	return false, nil
}

func newWAL(f walFile, opts WALOptions) *WAL {
	w := &WAL{opts: opts, f: f}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// create writes the header of a log just created at path and, unless
// NoSync, fsyncs the log's directory, so the new entry survives a crash
// as the header does.
func (w *WAL) create(path string) error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	if w.opts.NoSync {
		return nil
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, so an entry just created or renamed in it
// is on stable storage.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// walHeader returns the header that starts every log.
func walHeader() [walHeaderSize]byte {
	var hdr [walHeaderSize]byte
	copy(hdr[:8], walMagic)
	binary.LittleEndian.PutUint16(hdr[8:], Version)
	return hdr
}

func (w *WAL) writeHeader() error {
	hdr := walHeader()
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	w.end, w.zeroEnd = walHeaderSize, walHeaderSize
	if w.opts.NoSync {
		return nil
	}
	return w.f.Sync()
}

// scanWAL validates the header and streams intact records to replay,
// returning the record count and the offset just past the last intact
// record. Framing damage (short frame, CRC mismatch, oversized length)
// ends the scan at the previous record — the torn-tail contract — while
// a replay callback error aborts with that error.
//
//repro:boundedinput
func scanWAL(r io.Reader, replay func(op WALOp, key, val []byte) error) (records int, good int64, err error) {
	br := bufio.NewReader(r)
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, corruptWALError(fmt.Sprintf("short header: %v", err))
	}
	if string(hdr[:8]) != walMagic {
		return 0, 0, corruptWALError(fmt.Sprintf("bad magic %q", hdr[:8]))
	}
	if v := binary.LittleEndian.Uint16(hdr[8:]); v != Version {
		return 0, 0, corruptWALError(fmt.Sprintf("version %d, reader speaks %d", v, Version))
	}
	good = walHeaderSize
	var frame [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return records, good, nil // clean EOF or torn frame header
		}
		length := binary.LittleEndian.Uint32(frame[0:])
		crc := binary.LittleEndian.Uint32(frame[4:])
		if length == 0 || length > maxWALRecordBytes {
			return records, good, nil // lying length: torn/corrupt tail
		}
		if uint32(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return records, good, nil // record cut mid-write
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return records, good, nil // bit rot or torn write
		}
		op, key, val, ok := parseWALPayload(payload)
		if !ok {
			return records, good, nil // framed but malformed: treat as tail
		}
		if replay != nil {
			if err := replay(op, key, val); err != nil {
				return records, good, err
			}
		}
		records++
		good += 8 + int64(length)
	}
}

// parseWALPayload splits a CRC-verified payload into its fields.
//
//repro:boundedinput
func parseWALPayload(p []byte) (op WALOp, key, val []byte, ok bool) {
	if len(p) < 1 {
		return 0, nil, nil, false
	}
	op, p = WALOp(p[0]), p[1:]
	if op != WALPut && op != WALDelete {
		return 0, nil, nil, false
	}
	key, p, ok = parseLenPrefixed(p)
	if !ok {
		return 0, nil, nil, false
	}
	if op == WALPut {
		val, p, ok = parseLenPrefixed(p)
		if !ok {
			return 0, nil, nil, false
		}
	}
	if len(p) != 0 {
		return 0, nil, nil, false
	}
	return op, key, val, true
}

// parseLenPrefixed decodes one uvarint-length-prefixed field as a
// subslice of p — no allocation, so a lying length can at most fail the
// bounds check, never amplify.
//
//repro:boundedinput
func parseLenPrefixed(p []byte) (b, rest []byte, ok bool) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > MaxRecordBytes || uint64(len(p)-w) < n {
		return nil, nil, false
	}
	return p[w : w+int(n)], p[w+int(n):], true
}

// Append logs one record. With fsync enabled (the default) it returns
// only after the record is on stable storage; concurrent appenders are
// batched into shared fsyncs (group commit). key and val may alias
// caller scratch — their bytes are copied into the frame before Append
// returns control.
//
//repro:noalloc
func (w *WAL) Append(op WALOp, key, val []byte) error {
	mx := w.opts.Metrics
	if mx == nil {
		return w.appendRecord(op, key, val)
	}
	start := obs.NowNanos()
	err := w.appendRecord(op, key, val)
	mx.AppendNanos.Record(obs.NowNanos() - start)
	if err == nil {
		mx.Appends.Inc()
	}
	return err
}

// appendRecord is Append's uninstrumented body: frame, write, and
// (unless NoSync) commit the record.
//
//repro:noalloc
//repro:poisons err
func (w *WAL) appendRecord(op WALOp, key, val []byte) error {
	if op != WALPut && op != WALDelete {
		return fmt.Errorf("persist: Append op %d", op) //repro:allocok invalid-op error path: the append was rejected, not logged
	}
	if len(key) > MaxRecordBytes || len(val) > MaxRecordBytes {
		return fmt.Errorf("persist: WAL record of %d/%d bytes exceeds MaxRecordBytes", len(key), len(val)) //repro:allocok oversized-record error path: the append was rejected, not logged
	}
	w.mu.Lock()
	if err := w.err; err != nil {
		w.mu.Unlock()
		return fmt.Errorf("persist: WAL poisoned by an earlier write or fsync failure: %w", err) //repro:allocok poisoned-log error path: the WAL already refuses all appends
	}
	buf := w.scratch[:0]
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame placeholder
	buf = append(buf, byte(op))
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	if op == WALPut {
		buf = binary.AppendUvarint(buf, uint64(len(val)))
		buf = append(buf, val...)
	}
	payload := buf[8:]
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
	w.scratch = buf
	end := w.end + int64(len(buf))
	// Extend the zero-filled region before the record would cross its
	// end, so the record's own write never grows the file. A failed
	// extension poisons like a failed record write: whatever it left
	// past the log's end is not what the WAL's counters describe.
	var err error
	for err == nil && end > w.zeroEnd {
		if _, err = w.f.WriteAt(walZeros[:], w.zeroEnd); err == nil {
			w.zeroEnd += walZeroChunk
		}
	}
	if err == nil {
		_, err = w.f.WriteAt(buf, w.end)
	}
	if err != nil {
		w.poison(err)
		w.mu.Unlock()
		return err
	}
	w.end = end
	w.seq++
	seq := w.seq
	w.mu.Unlock()
	if w.opts.NoSync {
		return nil
	}
	return w.commit(seq, false)
}

// commit returns once record seq is on stable storage. Callers share
// fsyncs (group commit): one that finds no fsync in flight issues one
// covering every record appended so far, with mu released so appends
// keep landing meanwhile (the next fsync covers them); the others wait
// for an fsync that covers their record. With force (Sync) the caller
// issues an fsync of its own even when seq is already durable. Reset
// and Close wait for the fsync in flight before they touch the file.
//
//repro:noalloc
//repro:poisons err
func (w *WAL) commit(seq uint64, force bool) error {
	w.mu.Lock()
	for {
		if err := w.err; err != nil {
			w.mu.Unlock()
			return err
		}
		if w.durable >= seq && !force {
			w.mu.Unlock()
			return nil
		}
		if !w.syncing {
			break
		}
		w.cond.Wait()
	}
	w.syncing = true
	flushedTo := w.seq
	w.mu.Unlock()
	mx := w.opts.Metrics
	var start int64
	if mx != nil {
		start = obs.NowNanos()
	}
	err := w.f.Sync()
	if mx != nil {
		mx.FsyncNanos.Record(obs.NowNanos() - start)
	}

	w.mu.Lock()
	w.syncing = false
	if err != nil {
		w.poison(err)
	} else if flushedTo > w.durable {
		if mx != nil {
			mx.CommitBatch.Record(int64(flushedTo - w.durable))
		}
		w.durable = flushedTo
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return err
}

// poison makes err the WAL's sticky error, unless an earlier one
// already is, and counts the event.
//
//repro:noalloc
//repro:requires-lock
//repro:poisons err
func (w *WAL) poison(err error) {
	if w.err != nil {
		return
	}
	w.err = err
	if mx := w.opts.Metrics; mx != nil {
		mx.Poisoned.Inc()
	}
}

// Sync forces an fsync of everything appended so far (useful with
// NoSync, or before handing the file to another process); it takes its
// turn with group commit's fsyncs, never overlapping one. A failed
// fsync poisons the WAL exactly as one inside Append would: the kernel
// may have dropped the dirty pages it could not write, so no later
// Append or Sync may claim durability over the hole — all of them
// return the sticky error until Reset truncates the log back to a
// state the disk verifiably holds.
func (w *WAL) Sync() error { return w.commit(0, true) }

// Len returns the number of records appended (including replayed ones).
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return int(w.seq)
}

// Size returns the log's byte size: the offset just past its last
// record, not counting the zero-filled region past it. The error is
// always nil.
func (w *WAL) Size() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.end, nil
}

// Reset discards every record, truncating the log back to its header —
// the post-checkpoint step: once a snapshot durably covers the WAL's
// state, its records are dead weight. It waits for commit's fsync in
// flight first, so no fsync that started before it can mark records
// durable after it.
//
// A successful Reset also heals a poisoned WAL: the sticky error is
// cleared, because the truncated (and, unless NoSync, fsynced) log no
// longer contains any record whose durability was in doubt — the
// checkpoint's snapshot covers everything that was ever acknowledged.
// A Reset that itself fails poisons instead: a half-truncated log with
// counters that no longer match its contents must refuse appends, or a
// later recovery would silently discard them as a torn tail.
//
//repro:poisons err
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	if err := w.f.Truncate(walHeaderSize); err != nil {
		w.poison(err)
		return err
	}
	w.end, w.zeroEnd = walHeaderSize, walHeaderSize
	if !w.opts.NoSync {
		if err := w.f.Sync(); err != nil {
			w.poison(err)
			return err
		}
	}
	// The empty log holds nothing whose durability is in doubt, and any
	// torn bytes were just truncated away.
	w.seq, w.durable, w.err = 0, 0, nil
	return nil
}

// Close waits for commit's fsync in flight, truncates the zero-filled
// region, so a cleanly closed log ends at its last record, then fsyncs
// (unless NoSync) and closes the file. A failed truncate or final fsync
// poisons like any other: post-Close appends already fail on the closed
// file, but a caller retrying Sync must keep seeing the error rather
// than a silent success against lost pages.
//
//repro:poisons err
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	var err error
	if w.zeroEnd > w.end {
		if err = w.f.Truncate(w.end); err != nil {
			w.poison(err)
		} else {
			w.zeroEnd = w.end
		}
	}
	if err == nil && !w.opts.NoSync {
		if err = w.f.Sync(); err != nil {
			w.poison(err)
		}
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Err reports the WAL's sticky poison — the write or fsync error that
// switched it into its refuse-all-appends state — or nil while the log
// is healthy. This is the readiness signal: a process serving writes
// from a poisoned WAL is acknowledging nothing durably.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
