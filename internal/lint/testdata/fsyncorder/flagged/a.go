// Package a exercises fsyncorder: the two pre-PR-8 durability-ordering
// bugs (an un-sticky fsync error and a snapshot.tmp that outlives a
// failed rename), pinned in the exact shapes the fixes replaced, plus
// the discard/direct-return/inline-consumption shapes that skip the
// poison protocol entirely.
package a

import (
	"os"
	"sync"
)

const headerSize = 16

// file is the walFile seam: durability ops are annotated per method.
type file interface {
	//repro:durable
	Sync() error
	//repro:durable
	Truncate(size int64) error
	//repro:durable
	Seek(offset int64, whence int) (int64, error)
}

type log struct {
	mu       sync.Mutex
	smu      sync.Mutex
	f        file
	files    []file
	buf      []byte
	seq      uint64
	durable  uint64
	writeErr error
	syncErr  error
	err      error
}

// Sync is the pre-fix WAL.Sync: a failed fsync is returned without
// being recorded, so a later Sync with nothing new written reports
// success over pages the kernel may have dropped.
//
//repro:poisons syncErr
func (w *log) Sync() error {
	w.mu.Lock()
	seq := w.seq
	w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		return err // want `error from //repro:durable Sync can reach this return with no //repro:poisons action`
	}
	w.smu.Lock()
	if seq > w.durable {
		w.durable = seq
	}
	w.smu.Unlock()
	return nil
}

// Reset is the pre-fix WAL.Reset: a failed truncate, seek or fsync
// leaves counters that no longer match the file, and nothing records
// the mismatch.
//
//repro:poisons writeErr syncErr
func (w *log) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(headerSize); err != nil {
		return err // want `error from //repro:durable Truncate can reach this return`
	}
	if _, err := w.f.Seek(headerSize, 0); err != nil {
		return err // want `error from //repro:durable Seek can reach this return`
	}
	if err := w.f.Sync(); err != nil {
		return err // want `error from //repro:durable Sync can reach this return`
	}
	w.seq = 0
	w.durable = 0
	return nil
}

// publish is the pre-fix Checkpoint tail: a failed rename returns with
// the fully-written tmp still in the directory.
//
//repro:poisons os.Remove
func publish(tmp, final string) error {
	if err := os.Rename(tmp, final); err != nil {
		return err // want `error from //repro:durable os.Rename can reach this return`
	}
	return nil
}

// flush hands the durable error straight to the caller — no poison
// action can ever run on its failure path.
//
//repro:poisons syncErr
func (w *log) flush() error {
	return w.f.Sync() // want `error of //repro:durable Sync is returned directly`
}

// drop discards the durable error outright.
//
//repro:poisons syncErr
func (w *log) drop() {
	w.f.Sync() // want `error of //repro:durable Sync is discarded`
}

// blank discards it into the blank identifier.
//
//repro:poisons syncErr
func (w *log) blank() {
	_ = w.f.Sync() // want `error of //repro:durable Sync is discarded`
}

// inline consumes the error inside an expression, so no variable exists
// for the failure path to poison through.
//
//repro:poisons syncErr
func (w *log) inline() bool {
	return w.f.Sync() == nil // want `error of //repro:durable Sync is consumed inline`
}

// ackUnsynced handles its durable error correctly but can acknowledge
// success on a path that never synced nor consulted the sticky error.
//
//repro:poisons syncErr
func (w *log) ackUnsynced(force bool) error {
	if force {
		if err := w.f.Sync(); err != nil {
			w.syncErr = err
			return err
		}
	}
	return nil // want `success ack \(nil error\) in //repro:poisons ackUnsynced is not dominated`
}

// syncAll fsyncs every file and poisons on a failure, but the loop may
// run zero times: its success return is reached on a path that synced
// nothing and never consulted the sticky error.
//
//repro:poisons syncErr
func (w *log) syncAll() error {
	for _, f := range w.files {
		if err := f.Sync(); err != nil {
			w.syncErr = err
			return err
		}
	}
	return nil // want `success ack \(nil error\) in //repro:poisons syncAll is not dominated`
}

// checkedLocal acknowledges success after checking only a local that
// shares the sticky field's name: the local is not the sticky error,
// and nothing on the path synced.
//
//repro:poisons err
func (w *log) checkedLocal(check func() error) error {
	err := check()
	if err != nil {
		return err
	}
	return nil // want `success ack \(nil error\) in //repro:poisons checkedLocal is not dominated`
}
