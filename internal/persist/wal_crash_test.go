package persist

// Crash prefixes of the WAL, after ALICE (Pillai et al., OSDI 2014): a
// recording walFile logs every WriteAt, Sync and Truncate that two
// appenders and a third goroutine calling Sync cause, with a marker
// where each Append returned. Every prefix of that log is a moment a
// crash could strike. The disk then holds every write that a completed
// fsync covers, and of the writes after it none, all, or all with the
// last one torn. Each such file must reopen with every record
// acknowledged in the prefix, in the order the log wrote them.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

type crashOpKind uint8

const (
	crashWrite crashOpKind = iota
	crashTruncate
	crashSyncStart
	crashSyncDone
	crashAck
)

type crashOp struct {
	kind crashOpKind
	off  int64  // WriteAt offset, Truncate size
	data []byte // WriteAt bytes
	// start is a crashSyncDone's crashSyncStart: the fsync covers the
	// writes logged before it.
	start int
	key   string // crashAck: the acknowledged record's key
}

// recordingFile is an in-memory walFile that logs the operations the
// WAL issues, in the order they take effect.
type recordingFile struct {
	mu  sync.Mutex
	ops []crashOp
}

func (f *recordingFile) log(op crashOp) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = append(f.ops, op)
	return len(f.ops) - 1
}

func (f *recordingFile) WriteAt(p []byte, off int64) (int, error) {
	f.log(crashOp{kind: crashWrite, off: off, data: bytes.Clone(p)})
	return len(p), nil
}

// Sync takes a little while, as a real fsync does, so appends land
// while it runs and group commit batches them.
func (f *recordingFile) Sync() error {
	start := f.log(crashOp{kind: crashSyncStart})
	time.Sleep(50 * time.Microsecond)
	f.log(crashOp{kind: crashSyncDone, start: start})
	return nil
}

func (f *recordingFile) Truncate(size int64) error {
	f.log(crashOp{kind: crashTruncate, off: size})
	return nil
}

func (f *recordingFile) Close() error { return nil }

func (f *recordingFile) ack(key string) { f.log(crashOp{kind: crashAck, key: key}) }

// applyCrashOp applies a WriteAt or Truncate to a file image; torn
// applies only the first half of a write.
func applyCrashOp(img []byte, op crashOp, torn bool) []byte {
	switch op.kind {
	case crashWrite:
		data := op.data
		if torn {
			data = data[:len(data)/2]
		}
		if end := op.off + int64(len(data)); end > int64(len(img)) {
			img = append(img, make([]byte, end-int64(len(img)))...)
		}
		copy(img[op.off:], data)
	case crashTruncate:
		if op.off <= int64(len(img)) {
			img = img[:op.off]
		} else {
			img = append(img, make([]byte, op.off-int64(len(img)))...)
		}
	}
	return img
}

// isRecordWrite reports whether op writes a record: a write past the
// header that is not a zero-fill extension.
func isRecordWrite(op crashOp) bool {
	return op.kind == crashWrite && op.off >= walHeaderSize && !bytes.Equal(op.data, walZeros[:len(op.data)])
}

func TestWALCrashPrefixes(t *testing.T) {
	const appenders, perAppender = 2, 50
	rec := &recordingFile{}
	w := newWAL(rec, WALOptions{})
	// Crash prefixes start at the log's creation, so the header's write
	// and fsync are in the log too: a crash can leave no header, a torn
	// one, or one not yet fsynced, and each must open as an empty log.
	if err := w.writeHeader(); err != nil {
		t.Fatal(err)
	}

	// Values of a few KiB, so the records cross several extensions.
	keys := make([][]string, appenders)
	values := make(map[string][]byte)
	for g := range keys {
		keys[g] = make([]string, perAppender)
		for i := range keys[g] {
			keys[g][i] = fmt.Sprintf("%c%03d", 'a'+g, i)
			values[keys[g][i]] = bytes.Repeat([]byte{byte('a' + g)}, 2048+37*i)
		}
	}
	var wg sync.WaitGroup
	for g := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, key := range keys[g] {
				if err := w.Append(WALPut, []byte(key), values[key]); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				rec.ack(key)
			}
		}()
	}
	// Sync throughout the appenders' run: its fsyncs must take turns
	// with the group commit's.
	done := make(chan struct{})
	var syncer sync.WaitGroup
	syncer.Add(1)
	go func() {
		defer syncer.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := w.Sync(); err != nil {
				t.Errorf("Sync: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	syncer.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ops := rec.ops

	// The prefix model below takes each fsync to cover the writes logged
	// before its start, so no fsync may start while another is in flight.
	syncing := false
	for i, op := range ops {
		switch op.kind {
		case crashSyncStart:
			if syncing {
				t.Fatalf("op %d/%d: an fsync started while another was in flight", i, len(ops))
			}
			syncing = true
		case crashSyncDone:
			syncing = false
		}
	}

	// The records in the order the log wrote them. Each must overwrite
	// bytes the file already holds: only a zero-fill grows the file.
	var written []string
	extensions := 0
	var file []byte
	for _, op := range ops {
		if isRecordWrite(op) {
			if end := op.off + int64(len(op.data)); end > int64(len(file)) {
				t.Fatalf("record write [%d, %d) grows the %d-byte file", op.off, end, len(file))
			}
			_, key, _, ok := parseWALPayload(op.data[8:])
			if !ok {
				t.Fatalf("undecodable record write at offset %d", op.off)
			}
			written = append(written, string(key))
		} else if op.kind == crashWrite && op.off > 0 {
			extensions++
		}
		file = applyCrashOp(file, op, false)
	}
	if len(written) != appenders*perAppender || extensions < 3 {
		t.Fatalf("log holds %d records and %d zero-fill extensions; want %d and at least 3",
			len(written), extensions, appenders*perAppender)
	}
	order := make(map[string]int, len(written))
	for i, k := range written {
		order[k] = i
	}

	// base is the image the last completed fsync of the prefix covers,
	// made of its first baseOps ops.
	var base []byte
	baseOps := 0
	needed := 0       // records the acks in the prefix require
	recordsSoFar := 0 // record writes in the prefix
	checked := 0
	path := filepath.Join(t.TempDir(), "wal")
	for p := 0; p <= len(ops); p++ {
		if p > 0 {
			switch op := ops[p-1]; op.kind {
			case crashAck:
				needed = max(needed, order[op.key]+1)
			case crashWrite:
				if isRecordWrite(op) {
					recordsSoFar++
				}
			case crashSyncDone:
				for _, op := range ops[baseOps:op.start] {
					base = applyCrashOp(base, op, false)
				}
				baseOps = op.start
			}
		}
		var later []crashOp
		for _, op := range ops[baseOps:p] {
			if op.kind == crashWrite || op.kind == crashTruncate {
				later = append(later, op)
			}
		}

		check := func(variant string, img []byte, wantAll, torn bool) {
			t.Helper()
			checked++
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			mx := NewWALMetrics()
			var got []string
			w, _, err := OpenWAL(path, WALOptions{NoSync: true, Metrics: mx}, func(op WALOp, key, val []byte) error {
				k := string(key)
				if len(got) >= len(written) || written[len(got)] != k {
					return fmt.Errorf("record %d is %q, not the log's next", len(got), k)
				}
				if !bytes.Equal(val, values[k]) {
					return fmt.Errorf("record %q has a %d-byte value, want %d", k, len(val), len(values[k]))
				}
				got = append(got, k)
				return nil
			})
			if err != nil {
				t.Fatalf("prefix %d/%d, %s: OpenWAL: %v", p, len(ops), variant, err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if len(got) < needed {
				t.Fatalf("prefix %d/%d, %s: replayed %d records; the prefix acknowledged %d",
					p, len(ops), variant, len(got), needed)
			}
			if wantAll && len(got) != recordsSoFar {
				t.Fatalf("prefix %d/%d, %s: replayed %d of the %d records written",
					p, len(ops), variant, len(got), recordsSoFar)
			}
			if tornCount := mx.ReplayTorn.Load(); (tornCount == 1) != torn {
				t.Fatalf("prefix %d/%d, %s: ReplayTorn = %d, want torn %v", p, len(ops), variant, tornCount, torn)
			}
		}

		check("none", bytes.Clone(base), len(later) == 0, false)
		if len(later) == 0 {
			continue
		}
		img := bytes.Clone(base)
		for _, op := range later {
			img = applyCrashOp(img, op, false)
		}
		check("all", img, true, false)
		if last := later[len(later)-1]; last.kind == crashWrite {
			img = bytes.Clone(base)
			for _, op := range later[:len(later)-1] {
				img = applyCrashOp(img, op, false)
			}
			img = applyCrashOp(img, last, true)
			check("last torn", img, false, isRecordWrite(last))
		}
	}
	t.Logf("%d ops, %d zero-fill extensions, %d crash images checked", len(ops), extensions, checked)
}
