package cmap

// The recovery pipeline. A record's candidate buckets come from its
// stored digest alone, and a shard's placements depend only on the order
// of that shard's own records, so a recovery can be split by shard and
// still build exactly the map a serial load builds: each worker owns the
// shards whose index is its own modulo the worker count, and receives
// their records in file order.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/hashes"
)

// loadChunk is the number of records a window holds: as many independent
// misses as GetBatch's chunk keeps in flight.
const loadChunk = mgetChunk

// placeWindow links a window's records by uint8 indices.
const _ = uint8(loadChunk - 1)

// loadQueue is the number of windows each worker's queue holds. The
// caller decodes a record in a small fraction of the time a worker takes
// to place it, so the queues run full; a worker then finds its next
// window waiting however late the scheduler runs the caller. At 2
// workers on 2 vCPUs, 2-deep queues left the workers idle on the
// caller's wake-ups (no gain over one goroutine); 16-deep ones, 1024
// records a worker, did not.
const loadQueue = 16

// loadWorkerQuota is the number of records a recovery hands over before
// it starts workers. Below it the caller places every record itself, as
// a serial load does, with no goroutine and one window: a recovery that
// short is a map that stays in cache, whose placements take no misses
// for a second worker to overlap, and starting the workers' windows
// would cost it more memory than it saves time (see README "Persistence
// & recovery" for the measurement).
const loadWorkerQuota = 1 << 15

// A Loader places a recovery's records into a map: the snapshot's, then
// the log's. Records are handed over in file order and placed a window
// at a time through the put body Put runs, and logged deletes through
// Delete's, so the map is the one handing every record to PutDigest or
// DeleteDigest in file order builds. Until loadWorkerQuota records have
// been handed over, the caller places each window itself. After that a
// loader with more than one worker to start — min(GOMAXPROCS, shard
// count) — starts them: the caller only decodes and routes, and a record
// goes to the worker that owns its shard (shard index mod the worker
// count) through that worker's FIFO queue of windows, so every shard
// still receives its records in file order. Windows are allocated as
// they are needed, and recycled once placed.
//
// A Loader is used by one goroutine, which must call Close on every path
// once it has created one: Close is what stops the workers.
type Loader[K comparable, V any] struct {
	m       *Map[K, V]
	handed  int                 // records handed over
	spawn   int                 // workers to start past the quota; 0 once started or if one would add nothing
	workers int                 // workers started; 0 while the caller places
	fill    []*loadWindow[K, V] // per worker (one while the caller places): the window being filled
	queues  []chan *loadWindow[K, V]
	free    chan *loadWindow[K, V] // placed windows, for reuse
	pending sync.WaitGroup         // windows queued and not yet placed
	running sync.WaitGroup         // workers not yet exited
	// rejected is set when a placement is rejected; nothing is placed
	// after it.
	rejected atomic.Bool
}

// NewLoader returns a loader that places records into m, which it owns
// until Close returns: nothing else may use m meanwhile.
func NewLoader[K comparable, V any](m *Map[K, V]) *Loader[K, V] {
	l := &Loader[K, V]{m: m, fill: make([]*loadWindow[K, V], 1)}
	if n := min(runtime.GOMAXPROCS(0), len(m.shards)); n > 1 {
		l.spawn = n
	}
	return l
}

// Map returns the map the loader places into. It holds every record
// handed over once Close has returned true.
func (l *Loader[K, V]) Map() *Map[K, V] { return l.m }

// Workers returns the number of goroutines that place the records: the
// workers the loader started, or 1 while the caller places them itself.
func (l *Loader[K, V]) Workers() int { return max(l.workers, 1) }

// Put hands over key → val, whose digest is Digest(l.Map(), key). The
// loader may hold key and val until the record is placed, so memory they
// view must stay valid until then (see Keep). Put reports false
// once a placement has been rejected: the caller should stop handing
// over records, and Close will report the rejection.
//
//repro:digestcarried
func (l *Loader[K, V]) Put(digest uint64, key K, val V) bool {
	return l.add(digest, key, val, false)
}

// Delete hands over a logged delete of key, whose digest is
// Digest(l.Map(), key); it is placed in order with the Puts of key's
// shard. It reports false as Put does.
//
//repro:digestcarried
func (l *Loader[K, V]) Delete(digest uint64, key K) bool {
	var zero V
	return l.add(digest, key, zero, true)
}

// Keep copies b into the window that the record of the given digest is
// routed to and returns the copy, which stays valid until that record is
// placed. A caller whose bytes are reused before then — a snapshot
// reader's block, a WAL scan's record buffer — decodes the record from
// Keep's copies, then hands it over with Put or Delete before it keeps
// or hands over any other record.
//
//repro:digestcarried
func (l *Loader[K, V]) Keep(digest uint64, b []byte) []byte {
	w := l.window(l.route(digest))
	if w.bytes == nil {
		// 64 bytes a record, served's 52 with room to spare: a window's
		// copies usually take one allocation.
		w.bytes = make([]byte, 0, loadChunk*64)
	}
	start := len(w.bytes)
	w.bytes = append(w.bytes, b...)
	return w.bytes[start:len(w.bytes):len(w.bytes)]
}

// drain places every record handed over before it returns, and reports
// whether all were placed.
func (l *Loader[K, V]) drain() bool {
	for i, w := range l.fill {
		if w != nil && w.n > 0 {
			l.flush(i)
		}
	}
	l.pending.Wait()
	return !l.rejected.Load()
}

// Close places every record handed over, then stops the workers and
// waits until each has exited. It reports whether every record was
// placed. The loader must not be used after.
func (l *Loader[K, V]) Close() bool {
	ok := l.drain()
	for _, q := range l.queues {
		close(q)
	}
	l.running.Wait()
	return ok
}

// route returns the index of the worker (or of the caller's one window)
// that a record of the given digest goes to.
//
//repro:digestcarried
func (l *Loader[K, V]) route(digest uint64) int {
	if l.workers == 0 {
		return 0
	}
	return int(digest>>(64-l.m.shardBits)) % l.workers // the shard index hashes.ShardSplit takes
}

// window returns fill[i], taking a placed window or allocating one if
// it has none.
func (l *Loader[K, V]) window(i int) *loadWindow[K, V] {
	if w := l.fill[i]; w != nil {
		return w
	}
	var w *loadWindow[K, V]
	select {
	case w = <-l.free: // nil, so never ready, until workers start
	default:
		w = &loadWindow[K, V]{cands: make([]uint32, loadChunk*l.m.d)}
	}
	l.fill[i] = w
	return w
}

// add appends a record to its window and flushes the window once full.
//
//repro:digestcarried
func (l *Loader[K, V]) add(digest uint64, key K, val V, del bool) bool {
	i := l.route(digest)
	w := l.window(i)
	w.digests[w.n], w.keys[w.n], w.vals[w.n], w.dels[w.n] = digest, key, val, del
	w.n++
	l.handed++
	if w.n < loadChunk {
		return true
	}
	return l.flush(i)
}

// flush hands fill[i] to its worker or, while the caller places, places
// it and starts the workers once the quota is passed. It reports false
// once a placement has been rejected.
func (l *Loader[K, V]) flush(i int) bool {
	w := l.fill[i]
	if l.workers > 0 {
		l.fill[i] = nil
		l.pending.Add(1)
		l.queues[i] <- w
		return !l.rejected.Load()
	}
	l.placeWindow(w)
	if l.spawn > 0 && l.handed > loadWorkerQuota {
		l.start()
	}
	return !l.rejected.Load()
}

// start starts the workers. The caller's window is empty (it was just
// placed), so every record handed over so far is placed and the
// partition by shard begins on a clean map state.
func (l *Loader[K, V]) start() {
	n := l.spawn
	l.spawn, l.workers = 0, n
	l.fill = append(l.fill, make([]*loadWindow[K, V], n-1)...)
	l.queues = make([]chan *loadWindow[K, V], n)
	// Every window the loader can own: per worker, a full queue, the
	// window it places and the one the caller fills. A worker returning
	// a placed window therefore never blocks.
	l.free = make(chan *loadWindow[K, V], n*(loadQueue+2))
	l.running.Add(n)
	for i := range l.queues {
		l.queues[i] = make(chan *loadWindow[K, V], loadQueue) // see loadQueue
		go l.work(l.queues[i])
	}
}

// work is a worker: it places the windows of its queue in arrival order
// until the queue is closed.
func (l *Loader[K, V]) work(q <-chan *loadWindow[K, V]) {
	defer l.running.Done()
	for w := range q {
		l.placeWindow(w)
		l.free <- w
		l.pending.Done()
	}
}

// loadWindow is a window of records handed to a Loader, and their plans.
// digests holds each record's full digest, then its in-shard tag once
// planned; cands holds d candidates per record, and bytes the copies
// Keep made for its records.
type loadWindow[K comparable, V any] struct {
	n       int
	digests [loadChunk]uint64
	keys    [loadChunk]K
	vals    [loadChunk]V
	dels    [loadChunk]bool // the record is a logged delete
	shards  [loadChunk]*shard[K, V]
	ders    [loadChunk]*hashes.Deriver
	cands   []uint32
	bytes   []byte
}

// placeWindow places w's records and empties w; once a placement has
// been rejected, it only empties w. It runs in three phases, as GetBatch
// does: plan every record (route it, derive its candidates with its
// shard's deriver), touch each candidate bucket's slot lines
// (PrefetchPut) in one volley so the window's cache misses overlap, then
// place the records shard by shard: each shard's records, in window
// order, under one hold of its lock, through the put body putLocked with
// their planned candidates or the delete body deleteLocked. A shard's
// placements depend only on its own records' order, so the order of the
// groups changes nothing. The goroutine placing w owns every shard of
// its records, so planning needs no lock, and putLocked derives again
// only for a record whose shard an earlier placement promoted.
//
//repro:digestcarried
func (l *Loader[K, V]) placeWindow(w *loadWindow[K, V]) {
	m, tags := l.m, w.digests[:w.n]
	w.n, w.bytes = 0, w.bytes[:0] // the records' bytes stay intact until the window refills
	if l.rejected.Load() {
		return
	}
	// Group g holds the window's records in shard heads[g], from first[g]
	// to last[g] through next, which links a record to its shard's next.
	var heads [loadChunk]*shard[K, V]
	var first, last, next [loadChunk]uint8
	groups := 0
	for i, d := range tags {
		sh, tag := m.routeDigest(d)
		der := sh.deriver.Load()
		der.CandidateBins(tag, w.cands[i*m.d:(i+1)*m.d])
		w.shards[i], w.ders[i], tags[i] = sh, der, tag
		g := 0
		for g < groups && heads[g] != sh {
			g++
		}
		if g == groups {
			heads[g], first[g] = sh, uint8(i)
			groups++
		} else {
			next[last[g]] = uint8(i)
		}
		last[g] = uint8(i)
	}
	// The volley, kept free of interleaved compute (see getChunk).
	var sum uint32
	for i := range tags {
		sum += w.shards[i].core.PrefetchPut(w.cands[i*m.d : (i+1)*m.d])
	}
	keepAlive(sum)
	for g, sh := range heads[:groups] {
		sh.lock()
		for i := int(first[g]); ; i = int(next[i]) {
			if w.dels[i] {
				m.deleteLocked(sh, tags[i], w.keys[i])
			} else if !m.putLocked(sh, tags[i], w.ders[i], w.cands[i*m.d:(i+1)*m.d], w.keys[i], w.vals[i]) {
				sh.unlock()
				l.rejected.Store(true)
				return
			}
			if i == int(last[g]) {
				break
			}
		}
		sh.unlock()
	}
}
