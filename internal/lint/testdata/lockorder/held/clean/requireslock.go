// Package clean holds the //repro:requires-lock shapes lockorder must
// accept: a classed lock held on every path to the call, obligation
// propagation between requires-lock functions, and the lock()/unlock()
// wrapper around a call in a loop. Any finding here is a false positive.
package clean

import "sync"

type table struct {
	mu    sync.Mutex //repro:lockclass table 35
	items map[uint64]uint64
}

//repro:requires-lock
func (s *table) growLocked() {
	s.items[0] = uint64(len(s.items))
}

// rebalanceLocked propagates the obligation outward: it is itself
// requires-lock, so calling growLocked is fine.
//
//repro:requires-lock
func (s *table) rebalanceLocked() {
	s.growLocked()
}

// put acquires the lock before the call, and a deferred unlock holds it
// to exit.
func (s *table) put(k, v uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items[k] = v
	s.rebalanceLocked()
}

// onEach runs only under iterate, which holds s.mu across the walk: the
// obligation propagates to iterate.
//
//repro:requires-lock
func (s *table) onEach() {
	s.growLocked()
}

func (s *table) iterate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onEach()
}

// either acquires on both branches, so the lock is held on every path
// to the call.
func (s *table) either(fast bool) {
	if fast {
		s.mu.Lock()
	} else {
		s.mu.Lock()
		s.items[1] = 1
	}
	s.growLocked()
	s.mu.Unlock()
}

// shard locks its one classed mutex through lock()/unlock() wrappers.
type shard struct {
	mu sync.RWMutex //repro:lockclass shard 30
	n  int
}

func (sh *shard) lock()   { sh.mu.Lock() }
func (sh *shard) unlock() { sh.mu.Unlock() }

//repro:requires-lock
func (sh *shard) bumpLocked() { sh.n++ }

// stepAll has MigrateStep's shape: each shard that has work is locked
// through the wrapper around the helper's call.
func stepAll(shards []shard) {
	for i := range shards {
		sh := &shards[i]
		if sh.n == 0 {
			continue
		}
		sh.lock()
		sh.bumpLocked()
		sh.unlock()
	}
}
