package cmap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hashes"
	"repro/internal/keyed"
	"repro/internal/persist"
)

// pipelineProcs are the GOMAXPROCS values the pipeline tests recover at:
// 1 places every record in the caller, 2 and 4 start that many workers
// past loadWorkerQuota records, whatever the machine's CPU count.
var pipelineProcs = []int{1, 2, 4}

// withProcs runs fn at GOMAXPROCS procs.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// waitGoroutines polls runtime.NumGoroutine until it is back to base,
// failing the test if it is not within a few seconds: a worker that
// outlives its recovery call shows here.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the recovery returned, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// peakGoroutines is the uint64 codec, sampling runtime.NumGoroutine
// every 1024 values it decodes: the recovery's caller decodes them, so
// the peak shows whether the workers had started.
type peakGoroutines struct {
	decoded atomic.Int64
	peak    atomic.Int64
}

func (p *peakGoroutines) codec() keyed.Codec[uint64] {
	return keyed.Codec[uint64]{
		Append: keyed.Uint64Codec.Append,
		Decode: func(b []byte) (uint64, error) {
			if p.decoded.Add(1)%1024 == 0 {
				if n := int64(runtime.NumGoroutine()); n > p.peak.Load() {
					p.peak.Store(n)
				}
			}
			return keyed.Uint64Codec.Decode(b)
		},
	}
}

// TestRecoveryErrorsJoinWorkers: a load that fails after its workers
// started returns the error the serial load returns — a section whose
// CRC does not match, a record the fixed geometry rejects mid-window —
// with no map, and every worker has exited by the time it returns.
func TestRecoveryErrorsJoinWorkers(t *testing.T) {
	const sections, per = 16, 3 * loadWorkerQuota / 32 // 49,152 records
	key := func(i int) uint64 { return uint64(i)*7919 + 1 }
	snap := writeSections(t, keyed.Uint64, keyed.Uint64Codec, keyed.Uint64Codec, 9, repeatInts(per, sections), key,
		func(i int) uint64 { return expectedVal(key(i)) })
	// Damage section 13, past the quota: its CRC no longer matches.
	corrupt := bytes.Clone(snap)
	off := 48
	for s := 0; s < 13; s++ {
		off += 16 + int(binary.LittleEndian.Uint64(corrupt[off+8:])) + 4
	}
	corrupt[off+16+100] ^= 0x40

	growing := Config{Shards: 16, BucketsPerShard: 8, SlotsPerBucket: 4, D: 3, MaxLoadFactor: 0.9}
	// 44,800 slots: the first rejection comes near 0.93 load, past the
	// quota, and some record must be rejected.
	fixed := Config{Shards: 16, BucketsPerShard: 700, SlotsPerBucket: 4, D: 3, StashPerShard: 4}

	for _, tc := range []struct {
		name string
		snap []byte
		cfg  Config
		is   func(error) bool
	}{
		{"corrupt-section", corrupt, growing, func(err error) bool { return errors.Is(err, persist.ErrCorrupt) }},
		{"rejected-record", snap, fixed, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "does not fit the target geometry")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var serial error
			for _, procs := range pipelineProcs {
				withProcs(procs, func() {
					var peak peakGoroutines
					base := runtime.NumGoroutine()
					m, err := LoadKeyed(bytes.NewReader(tc.snap), keyed.Uint64, keyed.Uint64Codec, peak.codec(), tc.cfg)
					waitGoroutines(t, base)
					if !tc.is(err) || m != nil {
						t.Fatalf("GOMAXPROCS %d: map %v, err %v", procs, m != nil, err)
					}
					if procs == 1 {
						serial = err
					} else if err.Error() != serial.Error() {
						t.Fatalf("GOMAXPROCS %d: err %q, the serial load's %q", procs, err, serial)
					}
					if started := int(peak.peak.Load()) - base; procs > 1 && started < procs {
						t.Fatalf("GOMAXPROCS %d: at most %d goroutines above the baseline before the error; the workers never started", procs, started)
					}
				})
			}
		})
	}
}

// TestLoadLargeSectionsMatchesPutDigest: sections many reader blocks
// long, whose records straddle the blocks' boundaries, one of them
// larger than a block, load at GOMAXPROCS 1, 2 and 4 into the map that
// placing every record with PutDigest builds. Values decode as views
// (bytesView), so a record placed from bytes the reader has since
// reused would show as a wrong value.
func TestLoadLargeSectionsMatchesPutDigest(t *testing.T) {
	const sections, per = 4, 12_000 // past loadWorkerQuota
	key := func(i int) string { return fmt.Sprintf("key-%06d", i) }
	val := func(i int) []byte {
		if i == 3*per/2 {
			return bytes.Repeat([]byte{'B'}, 200<<10) // the reader's block is 64 KiB
		}
		return varValue(uint64(i))
	}
	snap := writeSections(t, keyed.ForType[string](), keyed.StringCodec, bytesView, 3, repeatInts(per, sections), key, val)
	cfg := Config{Shards: 16, BucketsPerShard: 64, SlotsPerBucket: 4, D: 3, MaxLoadFactor: 0.9}
	cfg.BucketsPerShard = BucketsFor(cfg, sections*per)
	for _, procs := range pipelineProcs {
		withProcs(procs, func() {
			if m, err := loadMatchesPuts(snap, keyed.ForType[string](), keyed.StringCodec, bytesView, cfg, bytes.Equal); err != nil || m == nil {
				t.Fatalf("GOMAXPROCS %d: loaded map differs from PutDigest placement: %v", procs, err)
			}
		})
	}
}

// TestLoadCorruptFirstDigestIsCorrupt: the first record reaches the
// wrong-hasher check before its section's CRC is checked, so a damaged
// digest there must still fail the load as corruption (ErrCorrupt), not
// as a wrong hasher, with every worker exited; an intact snapshot under
// another hasher still fails as a wrong hasher.
func TestLoadCorruptFirstDigestIsCorrupt(t *testing.T) {
	const seed = 9
	key := func(i int) uint64 { return uint64(i)*7919 + 1 }
	// An empty section first; then one many blocks long, so the CRC
	// that catches the damage is far past the first record.
	snap := writeSections(t, keyed.Uint64, keyed.Uint64Codec, keyed.Uint64Codec, seed, []int{0, 6000, 10}, key,
		func(i int) uint64 { return expectedVal(key(i)) })
	digest := binary.LittleEndian.AppendUint64(nil, keyed.Uint64(hashes.SipKeyFromSeed(seed), key(0)))
	at := bytes.Index(snap, digest)
	if at < 0 {
		t.Fatal("the first record's digest is not in the snapshot")
	}
	corrupt := bytes.Clone(snap)
	corrupt[at+3] ^= 0x10
	cfg := Config{Shards: 4, BucketsPerShard: 64, SlotsPerBucket: 4, D: 3, MaxLoadFactor: 0.9}
	for _, procs := range pipelineProcs {
		withProcs(procs, func() {
			base := runtime.NumGoroutine()
			m, err := loadU64(bytes.NewReader(corrupt), cfg)
			waitGoroutines(t, base)
			if !errors.Is(err, persist.ErrCorrupt) || m != nil {
				t.Fatalf("GOMAXPROCS %d: a damaged first digest: map %v, err %v; want ErrCorrupt", procs, m != nil, err)
			}
		})
	}
	other := func(sk hashes.SipKey, k uint64) uint64 { return keyed.Uint64(sk, k) ^ 0xFFFF }
	_, err := LoadKeyed[uint64, uint64](bytes.NewReader(snap), other, keyed.Uint64Codec, keyed.Uint64Codec, cfg)
	if err == nil || errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "wrong hasher") {
		t.Fatalf("an intact snapshot under another hasher: err %v, want the wrong-hasher error", err)
	}
}

// repeatInts returns n copies of v.
func repeatInts(v, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}
