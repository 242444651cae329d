package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/hashes"
	"repro/internal/keyed"
	"repro/internal/persist"
	"repro/internal/rng"
)

// workload is one traffic mix. Every workload runs three phases against
// the same served process, on conns connections: a closed-loop warm-up
// and capacity phase (depth requests in flight on each connection) that
// give goodput, then a round-trip phase (one request in flight on each
// connection) that gives latency. The traced run adds an open loop at a
// fixed rate.
//
// The round trips, not the open loop, give the bounded latency. On the
// 2-vCPU VM the benchmark was written on, an open loop at a tenth of
// capacity leaves the vCPUs idle between requests, and its latency was
// mostly the hypervisor waking them: mget-cache's p50 read ~170 µs in
// the open loop and ~45 µs in round trips. Over 80 s of one served
// process, through a stretch where the host halved the CPU's speed, the
// quartile spread of 8 s medians was 40% of the median for the open
// loop's p50 and 7% for the round trips'. Round trips still pay the
// host's wake-ups, which drift over minutes, so they are reported as a
// multiple of an echo reference's (see echo.go).
//
// The open-loop rates are a tenth to a quarter of the goodput each
// workload measured when the benchmark was written: read-dram ~750k
// GET/s, mget-cache ~160k MGET/s, write-durable ~17.5k SET/s. They are
// constants on purpose: a rate derived from the run's own goodput would
// move with the change under test.
type workload struct {
	name  string
	why   string
	pairs int     // pairs on disk before served starts; 0 starts empty
	keys  int     // key universe requests draw from, uniformly
	get   float64 // share of requests that read; the rest are SETs
	mget  int     // keys per read: 1 sends GET, more sends one MGET
	depth int     // requests in flight per connection, closed loop
	rate  float64 // traced open-loop requests per second, all connections
	// buckets is served's -buckets (initial buckets per shard). It is
	// served's default except for write-durable, whose run inserts too
	// few keys to double a default-sized table even once.
	buckets int
	// starts is how many times a run starts served on its dataset;
	// setup_s is the median start-up. A start on a small dataset takes
	// milliseconds, so the median of many steadies it; three loads of
	// 2M pairs already take ~15–20 s.
	starts int
}

// conns is the number of client connections every phase uses.
const conns = 2

// servedBuckets is served's default -buckets.
const servedBuckets = 1 << 12

// The workloads. There is no mixed read/write workload: its layers would
// be read-dram's and write-durable's, and each of its runs would pay
// read-dram's 2M-pair start-ups; that time goes to longer runs of the
// other three instead, which their steadiness needs.
var workloads = []workload{
	{
		name:  "read-dram",
		why:   "100% GET over 2M pairs (0.5 GB, beyond L3): wire framing per key and cmap string-key probes that miss DRAM, with no WAL",
		pairs: 2_000_000, keys: 2_000_000, get: 1, mget: 1, depth: 32, rate: 60_000,
		buckets: servedBuckets, starts: 3,
	},
	{
		name:  "mget-cache",
		why:   "100% MGET-16 over 16k cache-resident pairs: per-frame cost amortised over 16 keys, so hashing and probe CPU dominate",
		pairs: 16_384, keys: 16_384, get: 1, mget: 16, depth: 4, rate: 10_000,
		buckets: servedBuckets, starts: 11,
	},
	{
		name:  "write-durable",
		why:   "100% fsynced SET from empty over 1M keys: WAL append, group commit, fsync, the DurableMap stripe and cmap Put with online resize",
		pairs: 0, keys: 1 << 20, get: 0, mget: 1, depth: 16, rate: 4_000,
		buckets: 256, starts: 11,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// keysPerRead is the number of keys one read request carries.
func (wl *workload) keysPerRead() int { return max(wl.mget, 1) }

// Keys are "key-" plus 16 hex digits (20 bytes); values are 32 bytes.
const (
	keyLen = 20
	valLen = 32
)

// mapSeed is served's -seed: the hash seed every map in the benchmark
// uses, so the datasets written here load without re-hashing.
const mapSeed = 1

// keyspace names the keys of one run. Key i is the hex form of
// i XOR mask, with mask drawn from the run's seed, so each seed gives
// the map a different key set while the index stays recoverable from
// the key alone.
type keyspace struct{ mask, seed uint64 }

func newKeyspace(seed uint64) keyspace {
	return keyspace{mask: rng.Mix64(seed) & 0xffff_ffff_0000_0000, seed: seed}
}

const hexDigits = "0123456789abcdef"

// key renders key idx into dst.
func (ks keyspace) key(dst *[keyLen]byte, idx uint32) []byte {
	copy(dst[:4], "key-")
	x := uint64(idx) ^ ks.mask
	for i := keyLen - 1; i >= 4; i-- {
		dst[i] = hexDigits[x&15]
		x >>= 4
	}
	return dst[:]
}

// index recovers the index of a key rendered by key.
func (ks keyspace) index(key []byte) (uint32, bool) {
	if len(key) != keyLen || string(key[:4]) != "key-" {
		return 0, false
	}
	var x uint64
	for _, c := range key[4:] {
		switch {
		case c >= '0' && c <= '9':
			x = x<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			x = x<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	x ^= ks.mask
	if x > 0xffff_ffff {
		return 0, false
	}
	return uint32(x), true
}

// A value describes itself, so a reply can be checked without a copy
// of the dataset:
//
//	[0:8]   key index
//	[8:16]  version: writer<<48 | sequence (writer 0 is the dataset,
//	        writer c+1 is connection c)
//	[16:24] check word binding index, version and seed
//	[24:32] "bench-v1"
const valMagic = "bench-v1"

func (ks keyspace) checkWord(idx uint32, ver uint64) uint64 {
	return rng.Mix64(uint64(idx)*0x9E3779B97F4A7C15 ^ ver ^ ks.seed<<17)
}

func (ks keyspace) value(dst *[valLen]byte, idx uint32, ver uint64) []byte {
	binary.LittleEndian.PutUint64(dst[0:], uint64(idx))
	binary.LittleEndian.PutUint64(dst[8:], ver)
	binary.LittleEndian.PutUint64(dst[16:], ks.checkWord(idx, ver))
	copy(dst[24:], valMagic)
	return dst[:]
}

// check reports whether val is an intact value of key idx, and its
// version.
func (ks keyspace) check(val []byte, idx uint32) (ver uint64, ok bool) {
	if len(val) != valLen || string(val[24:]) != valMagic {
		return 0, false
	}
	if binary.LittleEndian.Uint64(val[0:]) != uint64(idx) {
		return 0, false
	}
	ver = binary.LittleEndian.Uint64(val[8:])
	return ver, binary.LittleEndian.Uint64(val[16:]) == ks.checkWord(idx, ver)
}

// version numbers a connection's sequence-th SET.
func version(conn int, seq uint64) uint64 { return uint64(conn+1)<<48 | seq }

// writerOf is the connection that wrote a version, -1 for the dataset.
func writerOf(ver uint64) int { return int(ver>>48) - 1 }

// The file names a DurableMap keeps in its directory.
const (
	snapshotFile = "snapshot"
	walFile      = "wal"
)

// snapshotSections is the section count of a dataset snapshot; loading
// does not depend on it.
const snapshotSections = 16

// writeDataset lays out pairs [0, n) in dir as a DurableMap leaves them
// after a crash: the first seven eighths in a snapshot, the rest as a
// WAL tail, so served's start-up both loads a snapshot and replays a
// log. Both files are fsynced, so no writeback of the dataset competes
// with the run's own fsyncs. n == 0 leaves dir empty.
func writeDataset(dir string, ks keyspace, n int) error {
	if n == 0 {
		return nil
	}
	tail := n / 8
	if err := writeSnapshot(filepath.Join(dir, snapshotFile), ks, n-tail); err != nil {
		return fmt.Errorf("dataset snapshot: %w", err)
	}
	if err := writeWALTail(filepath.Join(dir, walFile), ks, n-tail, n); err != nil {
		return fmt.Errorf("dataset WAL: %w", err)
	}
	return nil
}

func writeSnapshot(path string, ks keyspace, n int) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	sw, err := persist.NewSnapshotWriter(bw, persist.Header{Sections: snapshotSections, Seed: mapSeed})
	if err != nil {
		return err
	}
	sip := hashes.SipKeyFromSeed(mapSeed)
	var kb [keyLen]byte
	var vb [valLen]byte
	per := (n + snapshotSections - 1) / snapshotSections
	for s := 0; s < snapshotSections; s++ {
		if err := sw.BeginSection(); err != nil {
			return err
		}
		for i := s * per; i < min((s+1)*per, n); i++ {
			k := ks.key(&kb, uint32(i))
			if err := sw.Record(k, ks.value(&vb, uint32(i), 0), keyed.Bytes(sip, k)); err != nil {
				return err
			}
		}
		if err := sw.EndSection(); err != nil {
			return err
		}
	}
	if err := sw.Close(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

func writeWALTail(path string, ks keyspace, from, to int) error {
	w, err := persist.CreateWAL(path, persist.WALOptions{NoSync: true})
	if err != nil {
		return err
	}
	var kb [keyLen]byte
	var vb [valLen]byte
	for i := from; i < to; i++ {
		if err := w.Append(persist.WALPut, ks.key(&kb, uint32(i)), ks.value(&vb, uint32(i), 0)); err != nil {
			w.Close()
			return err
		}
	}
	return errors.Join(w.Sync(), w.Close())
}
