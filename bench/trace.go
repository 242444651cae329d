package main

// The traced run. It rebuilds served's stack in this process from
// public constructors (repro.OpenOf, a backend adapter that mirrors
// cmd/served's, wire.NewServer on a loopback listener) and drives it
// with the same clients. Spans are recorded around every backend call,
// from the benchmark's own code; nothing inside the program is traced.
// The calls a traced pass made, with their keys and values, are then
// replayed against each lower layer's public API at the same
// concurrency, which gives each layer's cost without spans inside it.
// A layer's self time is its span minus its children's, and what the
// children do not explain is reported as unreconciled.
//
// A workload that never writes, or never reads, is given a short probe
// pass of the missing request kind, so every layer metric is measured
// on every workload. Those numbers describe the layer; none of the
// workload's end-to-end metrics depend on them.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cmap"
	"repro/internal/hashes"
	"repro/internal/keyed"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/wire"
)

// Replay sizes: enough calls for a stable mean, few enough to keep the
// replays a small part of a run.
const (
	replayKeys    = 200_000 // keys replayed against cmap and the codec
	replayWALSets = 2_000   // fsynced appends replayed against a WAL
)

// bytesCodec stores []byte values verbatim, as cmd/served's does.
var bytesCodec = repro.Codec[[]byte]{
	Append: func(dst []byte, v []byte) []byte { return append(dst, v...) },
	Decode: func(b []byte) ([]byte, error) { return append([]byte(nil), b...), nil },
}

// mapConfig is the cmap geometry served builds from its flags: its
// defaults, the workload's -buckets and -seed 1.
func mapConfig(wl *workload) cmap.Config {
	return cmap.Config{
		Shards: 16, BucketsPerShard: wl.buckets, SlotsPerBucket: 4, D: 3,
		Seed: mapSeed, StashPerShard: 32, MaxLoadFactor: 0.90, MigrateBatch: 32,
	}
}

// backend mirrors cmd/served's adapter of the durable map to
// wire.Backend, adding a span around each call while rec is set.
type backend struct {
	m          *repro.DurableMap[string, []byte]
	keyScratch sync.Pool // *[]string
	rec        atomic.Pointer[recorder]
}

func (b *backend) Get(key []byte) ([]byte, bool) { return b.m.Get(string(key)) }

func (b *backend) GetBatch(keys [][]byte, vals [][]byte, found []bool) int {
	rec := b.rec.Load()
	var start int64
	if rec != nil {
		start = now()
	}
	skp, _ := b.keyScratch.Get().(*[]string)
	if skp == nil {
		skp = new([]string)
	}
	sk := (*skp)[:0]
	for _, k := range keys {
		sk = append(sk, string(k))
	}
	n := b.m.GetBatch(sk, vals[:len(sk)], found[:len(sk)])
	*skp = sk
	b.keyScratch.Put(skp)
	if rec != nil {
		rec.get(start, now(), keys, n)
	}
	return n
}

func (b *backend) Set(key, val []byte) error {
	rec := b.rec.Load()
	var start int64
	if rec != nil {
		start = now()
	}
	err := b.m.Put(string(key), append([]byte(nil), val...))
	if rec != nil {
		rec.set(start, now(), key, val)
	}
	return err
}

func (b *backend) Delete(key []byte) (bool, error) { return b.m.Delete(string(key)) }

// call is one recorded backend call: its span and its keys.
type call struct {
	set        bool
	start, end int64
	off, n     int // keys[off:off+n]
	val        int // a SET's value is vals[val:val+valLen]
	hits       int
}

func (c *call) dur() int64 { return c.end - c.start }

// recorder keeps the spans and the op stream of the calls it sees.
type recorder struct {
	ks    keyspace
	mu    sync.Mutex
	calls []call
	keys  []uint32
	vals  []byte
}

func (r *recorder) get(start, end int64, keys [][]byte, hits int) {
	r.mu.Lock()
	r.calls = append(r.calls, call{start: start, end: end, off: len(r.keys), n: len(keys), hits: hits})
	for _, k := range keys {
		idx, _ := r.ks.index(k)
		r.keys = append(r.keys, idx)
	}
	r.mu.Unlock()
}

func (r *recorder) set(start, end int64, key, val []byte) {
	r.mu.Lock()
	idx, _ := r.ks.index(key)
	r.calls = append(r.calls, call{set: true, start: start, end: end, off: len(r.keys), n: 1, val: len(r.vals)})
	r.keys = append(r.keys, idx)
	r.vals = append(r.vals, val...)
	r.mu.Unlock()
}

// value is a recorded SET's value.
func (r *recorder) value(c *call) []byte { return r.vals[c.val : c.val+valLen] }

// stack is served's stack, in process.
type stack struct {
	dm    *repro.DurableMap[string, []byte]
	be    *backend
	srv   *wire.Server
	ln    net.Listener
	serve chan error
}

func openStack(dir string, wl *workload) (*stack, error) {
	cfg := mapConfig(wl)
	dm, err := repro.OpenOf[string, []byte](dir,
		repro.HasherFor[string](), repro.CodecFor[string](), bytesCodec,
		repro.WithShards(cfg.Shards), repro.WithBuckets(cfg.BucketsPerShard), repro.WithSlots(cfg.SlotsPerBucket),
		repro.WithD(cfg.D), repro.WithStash(cfg.StashPerShard), repro.WithMaxLoadFactor(cfg.MaxLoadFactor),
		repro.WithMigrateBatch(cfg.MigrateBatch), repro.WithSeed(cfg.Seed),
		repro.WithWALSync(true), repro.WithDurableMetrics(repro.NewDurableMetrics()))
	if err != nil {
		return nil, err
	}
	dm.Map().SetMetrics(cmap.NewMetrics())
	s := &stack{dm: dm, be: &backend{m: dm}, serve: make(chan error, 1)}
	s.srv = wire.NewServer(s.be, wire.Options{IdleTimeout: 5 * time.Minute, WriteTimeout: 30 * time.Second})
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		dm.Close()
		return nil, err
	}
	go func() { s.serve <- s.srv.Serve(s.ln) }()
	return s, nil
}

func (s *stack) close() error {
	err := s.srv.Shutdown(10 * time.Second)
	return errors.Join(err, <-s.serve, s.dm.Close())
}

// keyOps is the key operations the server has completed.
func (s *stack) keyOps() int64 {
	c := s.srv.Counters()
	return c.Gets.Load() + c.MGetKeys.Load() + c.Sets.Load()
}

func (s *stack) wireBytes() int64 {
	c := s.srv.Counters()
	return c.BytesIn.Load() + c.BytesOut.Load()
}

// traceWorkload measures wl layer by layer.
func traceWorkload(e *env, wl workload, seed uint64, secs float64) (*result, error) {
	dir, err := os.MkdirTemp(e.tmp, wl.name+"-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ks := newKeyspace(seed)
	if err := writeDataset(dir, ks, wl.pairs); err != nil {
		return nil, err
	}
	s, setups, _, err := startSetups(e, dir, &wl, ks)
	if err != nil {
		return nil, err
	}
	s.kill()
	other, err := emptyStart(e, wl, ks)
	if err != nil {
		return nil, err
	}
	loadS, replayS, err := replayRecovery(dir, &wl)
	if err != nil {
		return nil, fmt.Errorf("recovery replay: %w", err)
	}
	runtime.GC()
	debug.FreeOSMemory() // the replayed map is garbage; do not carry it into the stack's heap

	st, err := openStack(dir, &wl)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	cs, err := dialAll(st.ln.Addr().String(), &wl, ks, seed)
	if err != nil {
		return nil, err
	}
	defer func() { closeAll(cs) }()

	d := func(share float64) time.Duration { return time.Duration(share * secs * float64(time.Second)) }
	m := mix{get: wl.get}
	if _, err := runClosed(cs, m, wl.depth, d(0.05)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	before := st.dm.Stats()
	opsBefore := st.keyOps()
	untraced, err := runClosed(cs, m, wl.depth, d(0.2))
	if err != nil {
		return nil, err
	}
	rec := &recorder{ks: ks}
	st.be.rec.Store(rec)
	ops0, bytes0 := st.keyOps(), st.wireBytes()
	traced, err := runClosed(cs, m, wl.depth, d(0.2))
	if err != nil {
		return nil, err
	}
	wireOps, wireBytes := st.keyOps()-ops0, st.wireBytes()-bytes0
	workCalls, workKeys := len(rec.calls), len(rec.keys) // the rest are the probe's
	recOpen := &recorder{ks: ks}
	st.be.rec.Store(recOpen)
	ol, err := runOpen(cs, m, wl.rate, d(0.35), seed)
	if err != nil {
		return nil, err
	}
	if probe, ok := probeMix(&wl); ok {
		st.be.rec.Store(rec)
		if _, err := runClosed(cs, probe, wl.depth, d(0.1)); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	st.be.rec.Store(nil)
	after := st.dm.Stats()
	kops := st.keyOps() - opsBefore
	closeAll(cs)
	closed = true
	if err := st.close(); err != nil {
		return nil, err
	}

	lm, err := replayLayers(dir, &wl, rec, st.dm.Map())
	if err != nil {
		return nil, err
	}
	res := &result{Workload: wl.name, Seed: seed, Metrics: lm, Extra: map[string]float64{}}
	addGen(lm, ol)
	lm["wire.self_us_mean"] = (meanRTT(ol) - backendPerRequest(recOpen, &wl)) / 1e3
	lm["wire.bytes_per_op"] = float64(wireBytes) / float64(wireOps)
	lm["wire.keys_per_backend_call"] = float64(workKeys) / float64(workCalls)
	lm["cmap.resizes"] = float64(after.Resizes - before.Resizes)
	lm["cmap.seq_fallbacks_per_kop"] = float64(after.SeqFallbacks-before.SeqFallbacks) / (float64(kops) / 1e3)
	lm["recovery.snapshot_load_s"] = loadS
	lm["recovery.wal_replay_s"] = replayS
	lm["recovery.other_s"] = other
	lm["trace.overhead_pct"] = 100 * (untraced - traced) / untraced
	res.Extra["setup_s"] = median(setups)
	res.Extra["untraced_goodput_ops_s"] = untraced
	res.Extra["traced_goodput_ops_s"] = traced
	addLatency(res.Extra, "open_read", ol.read)
	addLatency(res.Extra, "open_write", ol.write)
	res.Attempted, res.Failed = counts(cs)
	res.Correct = res.Failed == 0
	return res, nil
}

// emptyStart is served's median start-up on an empty directory: exec,
// runtime start, opening an empty map and WAL, listen and first reply,
// the part of setup_s that recovering no data leaves.
func emptyStart(e *env, wl workload, ks keyspace) (float64, error) {
	dir, err := os.MkdirTemp(e.tmp, wl.name+"-empty-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	wl.pairs = 0
	s, setups, _, err := startSetups(e, dir, &wl, ks)
	if err != nil {
		return 0, err
	}
	s.kill()
	return median(setups), nil
}

// probeMix is the request kind a workload lacks, if any.
func probeMix(wl *workload) (mix, bool) {
	switch wl.get {
	case 1:
		return mix{get: 0}, true
	case 0:
		return mix{get: 1, readOwn: true}, true
	}
	return mix{}, false
}

// meanRTT is the mean client round trip of the open-loop requests.
func meanRTT(ol openStats) float64 {
	var sum, n float64
	for _, lat := range ol.all() {
		for _, v := range lat {
			if v != missed {
				sum += float64(v)
				n++
			}
		}
	}
	return sum / n
}

// backendPerRequest is the mean time a request spent in the backend
// call that served it: a call serving k coalesced GETs counts k times.
func backendPerRequest(rec *recorder, wl *workload) float64 {
	var sum, n float64
	for _, c := range rec.calls {
		reqs := 1.0
		if !c.set && wl.keysPerRead() == 1 {
			reqs = float64(c.n)
		}
		sum += float64(c.dur()) * reqs
		n += reqs
	}
	return sum / n
}

// replayRecovery times the two halves of what served's start-up does
// on dir: cmap.LoadKeyed of the snapshot (or creating the empty map
// when there is none) and persist.ReplayWAL of the log into that map.
func replayRecovery(dir string, wl *workload) (loadS, replayS float64, err error) {
	h, kc, cfg := keyed.ForType[string](), keyed.CodecFor[string](), mapConfig(wl)
	start := time.Now()
	var m *cmap.Map[string, []byte]
	f, err := os.Open(filepath.Join(dir, snapshotFile))
	switch {
	case err == nil:
		m, err = cmap.LoadKeyed[string, []byte](bufio.NewReaderSize(f, 1<<20), h, kc, bytesCodec, cfg)
		f.Close()
		if err != nil {
			return 0, 0, err
		}
	case os.IsNotExist(err):
		m = cmap.NewKeyed[string, []byte](h, cfg)
	default:
		return 0, 0, err
	}
	loadS = time.Since(start).Seconds()
	start = time.Now()
	_, _, err = persist.ReplayWAL(filepath.Join(dir, walFile), func(op persist.WALOp, kb, vb []byte) error {
		k, err := kc.Decode(kb)
		if err != nil {
			return err
		}
		if op == persist.WALDelete {
			m.Delete(k)
			return nil
		}
		v, err := bytesCodec.Decode(vb)
		if err != nil {
			return err
		}
		m.Put(k, v)
		return nil
	})
	return loadS, time.Since(start).Seconds(), err
}

// replayed is the op stream of a traced pass, materialised for replay.
type replayed struct {
	gets       [][]string // keys of each GetBatch call
	getKeys    []string
	setKeys    []string
	setVals    [][]byte
	getSpans   int64 // summed span of the GetBatch calls
	getKeysAll int64 // keys every GetBatch call carried, replayed or not
	setSpans   []int64
	hits       int64
}

func materialise(rec *recorder) *replayed {
	r := &replayed{}
	var kb [keyLen]byte
	for i := range rec.calls {
		c := &rec.calls[i]
		if c.set {
			r.setSpans = append(r.setSpans, c.dur())
			if len(r.setKeys) < replayKeys {
				r.setKeys = append(r.setKeys, string(rec.ks.key(&kb, rec.keys[c.off])))
				r.setVals = append(r.setVals, rec.value(c))
			}
			continue
		}
		r.getSpans += c.dur()
		r.getKeysAll += int64(c.n)
		r.hits += int64(c.hits)
		if len(r.getKeys) >= replayKeys {
			continue
		}
		keys := make([]string, c.n)
		for i := range keys {
			keys[i] = string(rec.ks.key(&kb, rec.keys[c.off+i]))
		}
		r.gets = append(r.gets, keys)
		r.getKeys = append(r.getKeys, keys...)
	}
	return r
}

// replay runs fn(g, i) for i in [0, n), split over conns goroutines by
// i mod conns (the concurrency the server ran the calls at), and
// returns the goroutines' summed busy nanoseconds.
func replay(n int, fn func(g, i int)) float64 {
	busy := make([]int64, conns)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := now()
			for i := g; i < n; i += conns {
				fn(g, i)
			}
			busy[g] = now() - start
		}()
	}
	wg.Wait()
	var sum int64
	for _, b := range busy {
		sum += b
	}
	return float64(sum)
}

// replayLayers replays rec's op stream against the wire codec, the key
// hasher, cmap, the key/value codecs and a scratch WAL, and derives
// the per-layer metrics from the replays and rec's spans. live is the
// traced stack's map, in the state the traced passes left it.
func replayLayers(dir string, wl *workload, rec *recorder, live *cmap.Map[string, []byte]) (map[string]float64, error) {
	r := materialise(rec)
	lm := map[string]float64{}
	nGetKeys := len(r.getKeys)

	codecNs, err := replayCodec(rec, wl)
	if err != nil {
		return nil, err
	}
	lm["wire.codec_ns_per_req"] = codecNs

	h, sip := keyed.ForType[string](), hashes.SipKeyFromSeed(mapSeed)
	sinks := make([]uint64, conns) // keeps the hashes from being optimised away
	lm["cmap.hash_ns"] = replay(nGetKeys, func(g, i int) { sinks[g] ^= h(sip, r.getKeys[i]) }) / float64(nGetKeys)
	runtime.KeepAlive(sinks)
	lm["cmap.get_ns"] = replay(nGetKeys, func(g, i int) { live.Get(r.getKeys[i]) }) / float64(nGetKeys)
	vals, found := make([][][]byte, conns), make([][]bool, conns)
	for g := range vals {
		vals[g], found[g] = make([][]byte, wire.MaxMGetKeys), make([]bool, wire.MaxMGetKeys)
	}
	gbNs := replay(len(r.gets), func(g, i int) {
		keys := r.gets[i]
		live.GetBatch(keys, vals[g][:len(keys)], found[g][:len(keys)])
	}) / float64(nGetKeys)
	lm["cmap.get_batch_ns_per_key"] = gbNs

	// Puts replay against a map in the state the traced SETs found: the
	// live map for a preloaded workload (its SETs overwrite), a fresh
	// one for a workload that starts empty (its SETs insert and resize).
	target := live
	if wl.pairs == 0 {
		target = cmap.NewKeyed[string, []byte](keyed.ForType[string](), mapConfig(wl))
	}
	nSets := len(r.setKeys)
	putNs := replay(nSets, func(g, i int) { target.Put(r.setKeys[i], r.setVals[i]) }) / float64(nSets)
	lm["cmap.put_ns"] = putNs

	kc := keyed.CodecFor[string]()
	bufs := make([][]byte, conns)
	encNs := replay(nSets, func(g, i int) {
		bufs[g] = bytesCodec.Append(kc.Append(bufs[g][:0], r.setKeys[i]), r.setVals[i])
	}) / float64(nSets)

	appendNs, fsyncNs, perFsync, walRatio, err := replayWAL(filepath.Join(dir, "replay.wal"), r)
	if err != nil {
		return nil, err
	}
	lm["persist.append_us_mean"] = appendNs / 1e3
	lm["persist.fsync_us_mean"] = fsyncNs / 1e3
	lm["persist.records_per_fsync"] = perFsync
	lm["persist.wal_bytes_per_user_byte"] = walRatio

	slices.Sort(r.setSpans)
	var setSum float64
	for _, v := range r.setSpans {
		setSum += float64(v)
	}
	setMean := setSum / float64(len(r.setSpans))
	lm["durable.get_batch_ns_per_key"] = float64(r.getSpans) / float64(r.getKeysAll)
	lm["durable.set_us_mean"] = setMean / 1e3
	lm["durable.set_us_p99"] = quantile(r.setSpans, 0.99) / 1e3
	lm["durable.set_unexplained_pct"] = 100 * (setMean - appendNs - putNs - encNs) / setMean
	lm["cmap.hit_ratio"] = float64(r.hits) / float64(r.getKeysAll)

	spans := float64(r.getSpans) + setSum
	children := float64(r.getKeysAll)*gbNs + float64(len(r.setSpans))*(appendNs+putNs+encNs)
	lm["trace.unreconciled_pct"] = 100 * (spans - children) / spans
	return lm, nil
}

// replayWAL appends the traced SETs, fsynced, to a scratch WAL beside
// the data, two appenders at a time as the server ran them. It returns
// the mean append (including the group-commit wait) and fsync times in
// ns, the records each fsync made durable, and the WAL bytes written
// per user byte.
func replayWAL(path string, r *replayed) (appendNs, fsyncNs, perFsync, ratio float64, err error) {
	mx := persist.NewWALMetrics()
	w, err := persist.CreateWAL(path, persist.WALOptions{Metrics: mx})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer os.Remove(path)
	empty, err := w.Size()
	if err != nil {
		w.Close()
		return 0, 0, 0, 0, err
	}
	kc := keyed.CodecFor[string]()
	n := min(len(r.setKeys), replayWALSets)
	keys := make([][]byte, n)
	var user int64
	for i := range keys {
		keys[i] = kc.Append(nil, r.setKeys[i])
		user += int64(len(keys[i]) + len(r.setVals[i]))
	}
	errs := make([]error, conns)
	busy := replay(n, func(g, i int) {
		if err := w.Append(persist.WALPut, keys[i], r.setVals[i]); err != nil && errs[g] == nil {
			errs[g] = err
		}
	})
	size, serr := w.Size()
	if err := errors.Join(errors.Join(errs...), serr, w.Close()); err != nil {
		return 0, 0, 0, 0, err
	}
	var fs, cb obs.HistSnapshot
	mx.FsyncNanos.Snapshot(&fs)
	mx.CommitBatch.Snapshot(&cb)
	return busy / float64(n), fs.Mean(), cb.Mean(), float64(size-empty) / float64(user), nil
}

// replayCodec runs the server's side of the wire codec over the traced
// requests: wire.ReadFrame, wire.ParseRequest and the reply encoder,
// and returns ns per request.
func replayCodec(rec *recorder, wl *workload) (float64, error) {
	var frames []byte
	var kb [maxMGet][keyLen]byte
	keys := make([][]byte, 0, maxMGet)
	reqs := 0
	for i := range rec.calls {
		c := &rec.calls[i]
		if reqs >= replayKeys {
			break
		}
		switch {
		case c.set:
			frames = wire.AppendSetRequest(frames, rec.ks.key(&kb[0], rec.keys[c.off]), rec.value(c))
			reqs++
		case wl.keysPerRead() > 1:
			keys = keys[:0]
			for i := 0; i < c.n && i < maxMGet; i++ {
				keys = append(keys, rec.ks.key(&kb[i], rec.keys[c.off+i]))
			}
			frames = wire.AppendMGetRequest(frames, keys)
			reqs++
		default:
			for i := 0; i < c.n; i++ {
				frames = wire.AppendGetRequest(frames, rec.ks.key(&kb[0], rec.keys[c.off+i]))
				reqs++
			}
		}
	}
	var vb [valLen]byte
	val := rec.ks.value(&vb, 0, 0)
	vals := make([][]byte, maxMGet)
	for i := range vals {
		vals[i] = val
	}
	found := make([]bool, maxMGet)
	for i := range found {
		found[i] = true
	}
	br := bufio.NewReaderSize(bytes.NewReader(frames), 64<<10)
	out := make([]byte, 0, 128<<10)
	var buf []byte
	var req wire.Request
	start := now()
	for {
		payload, nb, err := wire.ReadFrame(br, buf, wire.DefaultMaxFrame)
		buf = nb
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if err := wire.ParseRequest(payload, &req); err != nil {
			return 0, err
		}
		switch req.Op {
		case wire.OpGet:
			out = wire.AppendValueReply(out, val)
		case wire.OpMGet:
			out = wire.AppendMGetReply(out, vals[:len(req.Keys)], found[:len(req.Keys)])
		default:
			out = wire.AppendStatusReply(out, wire.StatusOK)
		}
		if len(out) > 64<<10 {
			out = out[:0]
		}
	}
	return float64(now()-start) / float64(reqs), nil
}
