package repro_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/cmap"
	"repro/internal/hashes"
	"repro/internal/persist"
)

// pipelineProcs are the GOMAXPROCS values the pipeline tests recover at:
// 1 places every record in Open's goroutine, 2 and 4 start that many
// workers once the recovery has handed over more records than the
// pipeline's quota (2^15), whatever the machine's CPU count.
var pipelineProcs = []int{1, 2, 4}

// pipelinePairs is the pair count of the recovery inputs: past the
// quota, so a recovery at GOMAXPROCS >= 2 starts its workers.
const pipelinePairs = 40_000

// bytesView decodes a []byte value as a view of the bytes recovery hands
// it, as served's codec does: a snapshot section's buffer, or the copy
// the WAL replay makes of a record the scan's buffer is about to lose.
var bytesView = repro.Codec[[]byte]{
	Append: func(dst, v []byte) []byte { return append(dst, v...) },
	Decode: func(b []byte) ([]byte, error) { return b, nil },
}

// pipelineValue is key i's value at version v; its length and bytes
// depend on both, so a view of a reused buffer shows up as a wrong value.
func pipelineValue(i, v int) []byte {
	return []byte(fmt.Sprintf("v%d/%d/%s", v, i, strings.Repeat("x", (i+v)%23)))
}

// writeKeyOrderedSnapshot writes pairs [0, n) at version 0 to path in 16
// sections in key order, as the benchmark's datasets are written:
// consecutive records land in random shards.
func writeKeyOrderedSnapshot(t *testing.T, path string, n int) {
	t.Helper()
	var buf bytes.Buffer
	const sections = 16
	sw, err := persist.NewSnapshotWriter(&buf, persist.Header{Sections: sections, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, sk := repro.HasherFor[string](), hashes.SipKeyFromSeed(1)
	per := (n + sections - 1) / sections
	for s := 0; s < sections; s++ {
		if err := sw.BeginSection(); err != nil {
			t.Fatal(err)
		}
		for i := s * per; i < min((s+1)*per, n); i++ {
			k := recoveryKey(i)
			if err := sw.Record([]byte(k), pipelineValue(i, 0), h(sk, k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.EndSection(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// walOp is one logged operation of writeWAL.
type walOp struct {
	del bool
	i   int // key index
	v   int // value version (Puts)
}

// writeWAL writes ops to a fresh WAL at path.
func writeWAL(t *testing.T, path string, ops []walOp) {
	t.Helper()
	w, err := persist.CreateWAL(path, persist.WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.del {
			err = w.Append(persist.WALDelete, []byte(recoveryKey(op.i)), nil)
		} else {
			err = w.Append(persist.WALPut, []byte(recoveryKey(op.i)), pipelineValue(op.i, op.v))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// chainOps is a WAL tail over keys [0, n): every key is Put, then
// overwritten, every third key is then deleted and Put again, each
// round running through all keys, so each key's chain interleaves with
// every shard's; the first 64 keys also run a whole chain back to back,
// within one window.
func chainOps(n int) []walOp {
	var ops []walOp
	for i := 0; i < 64; i++ {
		ops = append(ops, walOp{i: i, v: 1}, walOp{i: i, v: 2}, walOp{del: true, i: i}, walOp{i: i, v: 3})
	}
	for round := 4; round < 8; round++ {
		for i := 0; i < n; i++ {
			switch {
			case round < 6:
				ops = append(ops, walOp{i: i, v: round})
			case i%3 == 0 && round == 6:
				ops = append(ops, walOp{del: true, i: i})
			case i%3 == 0:
				ops = append(ops, walOp{i: i, v: round})
			}
		}
	}
	return ops
}

// serialRecovery recovers dir the way Open did before the pipeline:
// presized as Open presizes, every snapshot record placed with PutDigest
// and every logged operation applied with PutDigest or DeleteDigest, one
// at a time in file order.
func serialRecovery(t *testing.T, dir string) *repro.Map[string, []byte] {
	t.Helper()
	cfg := servedConfig()
	h := repro.HasherFor[string]()
	walPath := filepath.Join(dir, "wal")
	var m *repro.Map[string, []byte]
	if snap, err := os.ReadFile(filepath.Join(dir, "snapshot")); err == nil {
		records, err := persist.SnapshotRecords(bytes.NewReader(snap), int64(len(snap)))
		if err != nil {
			t.Fatal(err)
		}
		var puts int64
		persist.ReplayWAL(walPath, func(op persist.WALOp, _, _ []byte) error { // no WAL counts none
			if op == persist.WALPut {
				puts++
			}
			return nil
		})
		cfg.BucketsPerShard = cmap.BucketsFor(cfg, int(records+min(puts, records)))
		sr, err := persist.NewSnapshotReader(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = sr.Header().Seed
		m = cmap.NewKeyed[string, []byte](h, cfg)
		for sr.Next() {
			kb, vb, digest := sr.Record()
			if !cmap.PutDigest(m, digest, string(kb), vb) {
				t.Fatal("the serial load rejected a record")
			}
		}
		if err := sr.Err(); err != nil {
			t.Fatal(err)
		}
	} else {
		m = cmap.NewKeyed[string, []byte](h, cfg)
	}
	if _, err := os.Stat(walPath); os.IsNotExist(err) {
		return m
	}
	if _, _, err := persist.ReplayWAL(walPath, func(op persist.WALOp, kb, vb []byte) error {
		key := string(kb)
		digest := cmap.Digest(m, key)
		if op == persist.WALDelete {
			cmap.DeleteDigest(m, digest, key)
		} else if !cmap.PutDigest(m, digest, key, vb) {
			return errors.New("the serial replay rejected a Put")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// sameMap reports the first difference between two maps: their Range
// order, pairs and values, or their Stats.
func sameMap(got, want *repro.Map[string, []byte]) error {
	type pair struct {
		k string
		v []byte
	}
	pairs := func(m *repro.Map[string, []byte]) (ps []pair) {
		m.Range(func(k string, v []byte) bool { ps = append(ps, pair{k, v}); return true })
		return ps
	}
	gp, wp := pairs(got), pairs(want)
	if len(gp) != len(wp) {
		return fmt.Errorf("Range visits %d pairs, the serial recovery's %d", len(gp), len(wp))
	}
	for i := range gp {
		if gp[i].k != wp[i].k || !bytes.Equal(gp[i].v, wp[i].v) {
			return fmt.Errorf("Range position %d: (%s, %q), the serial recovery's (%s, %q)", i, gp[i].k, gp[i].v, wp[i].k, wp[i].v)
		}
	}
	gs, ws := got.Stats(), want.Stats()
	if gs.Len != ws.Len || gs.Capacity != ws.Capacity || gs.Stashed != ws.Stashed || gs.Resizes != ws.Resizes ||
		gs.Migrating != ws.Migrating || gs.BackstopResizes != ws.BackstopResizes || !reflect.DeepEqual(gs.BucketLoads, ws.BucketLoads) {
		return fmt.Errorf("Stats differ:\n pipeline %+v\n serial   %+v", gs, ws)
	}
	return nil
}

// TestRecoveryMatchesSerial: Open recovers, at GOMAXPROCS 1, 2 and 4,
// the map the serial recovery builds — the same Range order, values and
// Stats — from a snapshot whose consecutive records land in random
// shards, from one Map.Snapshot wrote a shard per section, and from a
// snapshot plus a WAL tail of interleaved Put, overwrite, Delete and
// re-Put chains, whose workers start mid-replay. At GOMAXPROCS 2 and 4
// it must report that many workers.
func TestRecoveryMatchesSerial(t *testing.T) {
	for _, in := range []struct {
		name  string
		write func(t *testing.T, dir string)
	}{
		{"key-ordered-sections", func(t *testing.T, dir string) {
			writeKeyOrderedSnapshot(t, filepath.Join(dir, "snapshot"), pipelinePairs)
		}},
		{"map-snapshot", func(t *testing.T, dir string) {
			s, err := repro.OpenOf[string, []byte](dir, repro.HasherFor[string](), repro.CodecFor[string](), bytesView, servedFlags()...)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pipelinePairs; i++ {
				if err := s.Put(recoveryKey(i), pipelineValue(i, 0)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"wal-chains", func(t *testing.T, dir string) {
			writeKeyOrderedSnapshot(t, filepath.Join(dir, "snapshot"), pipelinePairs/4)
			writeWAL(t, filepath.Join(dir, "wal"), chainOps(pipelinePairs/2))
		}},
	} {
		t.Run(in.name, func(t *testing.T) {
			dir := t.TempDir()
			in.write(t, dir)
			want := serialRecovery(t, dir)
			for _, procs := range pipelineProcs {
				var s *repro.DurableMap[string, []byte]
				var err error
				withProcs(procs, func() {
					s, err = repro.OpenOf[string, []byte](dir, repro.HasherFor[string](), repro.CodecFor[string](), bytesView, servedFlags()...)
				})
				if err != nil {
					t.Fatalf("GOMAXPROCS %d: %v", procs, err)
				}
				if got := s.Recovery().Workers; got != procs {
					t.Errorf("GOMAXPROCS %d: %d workers", procs, got)
				}
				if err := sameMap(s.Map(), want); err != nil {
					t.Errorf("GOMAXPROCS %d: %v", procs, err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRecoveryErrorsJoinWorkers: a recovery that fails past the point
// its workers start fails Open with the error the serial recovery
// returns, and every worker has exited by the time Open returns. The
// failures: a WAL record the key codec cannot decode, and a snapshot
// whose last section, many reader blocks long, is damaged near its end,
// so its records were handed to the workers before its CRC failed.
func TestRecoveryErrorsJoinWorkers(t *testing.T) {
	const bad = -1
	errBad := errors.New("undecodable key")
	kc := repro.Codec[string]{
		Append: repro.CodecFor[string]().Append,
		Decode: func(b []byte) (string, error) {
			if string(b) == recoveryKey(bad) {
				return "", errBad
			}
			return string(b), nil
		},
	}
	for _, tc := range []struct {
		name      string
		write     func(t *testing.T, dir string)
		is        func(error) bool
		decodable bool // with a codec that decodes every key, dir recovers
	}{
		{"undecodable-wal-key", func(t *testing.T, dir string) {
			writeKeyOrderedSnapshot(t, filepath.Join(dir, "snapshot"), pipelinePairs/4)
			ops := chainOps(pipelinePairs / 2)
			ops = append(ops[:len(ops)-100], append([]walOp{{del: true, i: bad}}, ops[len(ops)-100:]...)...)
			writeWAL(t, filepath.Join(dir, "wal"), ops)
		}, func(err error) bool { return errors.Is(err, errBad) }, true},
		{"corrupt-snapshot-section", func(t *testing.T, dir string) {
			path := filepath.Join(dir, "snapshot")
			writeKeyOrderedSnapshot(t, path, pipelinePairs)
			snap, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			snap[len(snap)-4-8] ^= 0x40 // the last record's digest, before the section's CRC
			if err := os.WriteFile(path, snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}, func(err error) bool { return errors.Is(err, persist.ErrCorrupt) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.write(t, dir)
			var serial error
			for _, procs := range pipelineProcs {
				withProcs(procs, func() {
					var peak peakGoroutines
					base := runtime.NumGoroutine()
					s, err := repro.OpenOf[string, []byte](dir, repro.HasherFor[string](), kc, peak.codec(), servedFlags()...)
					waitGoroutines(t, base)
					if !tc.is(err) || s != nil {
						t.Fatalf("GOMAXPROCS %d: store %v, err %v", procs, s != nil, err)
					}
					if procs == 1 {
						serial = err
					} else if err.Error() != serial.Error() {
						t.Fatalf("GOMAXPROCS %d: err %q, the serial recovery's %q", procs, err, serial)
					}
					if started := int(peak.peak.Load()) - base; procs > 1 && started < procs {
						t.Fatalf("GOMAXPROCS %d: at most %d goroutines above the baseline before the error; the workers never started", procs, started)
					}
				})
			}
			if !tc.decodable {
				return
			}
			// The same directory, decodable, recovers with the workers started.
			withProcs(2, func() {
				s, err := repro.OpenOf[string, []byte](dir, repro.HasherFor[string](), repro.CodecFor[string](), bytesView, servedFlags()...)
				if err != nil {
					t.Fatal(err)
				}
				if s.Recovery().Workers != 2 {
					t.Errorf("%d workers, want 2", s.Recovery().Workers)
				}
				s.Close()
			})
		})
	}
}

// peakGoroutines is bytesView, sampling runtime.NumGoroutine every 1024
// values it decodes: Open's goroutine decodes them, so the peak shows
// whether the workers had started.
type peakGoroutines struct {
	decoded atomic.Int64
	peak    atomic.Int64
}

func (p *peakGoroutines) codec() repro.Codec[[]byte] {
	return repro.Codec[[]byte]{
		Append: bytesView.Append,
		Decode: func(b []byte) ([]byte, error) {
			if p.decoded.Add(1)%1024 == 0 {
				if n := int64(runtime.NumGoroutine()); n > p.peak.Load() {
					p.peak.Store(n)
				}
			}
			return bytesView.Decode(b)
		},
	}
}

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
