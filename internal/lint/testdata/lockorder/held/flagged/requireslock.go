// Package a exercises lockorder's //repro:requires-lock check:
// requires-lock helpers reached from callers that do not hold a classed
// lock on every path to the call.
package a

import "sync"

type shard struct {
	mu    sync.Mutex //repro:lockclass shardlock 80
	items map[uint64]uint64
}

// growLocked mutates shard state that only mu serializes.
//
//repro:requires-lock
func (s *shard) growLocked() {
	s.items[0] = uint64(len(s.items))
}

// putNoLock reaches growLocked without ever acquiring the lock.
func (s *shard) putNoLock(k, v uint64) {
	s.items[k] = v
	s.growLocked() // want `call of //repro:requires-lock growLocked from putNoLock`
}

// lateLock acquires the lock only after the call that needed it.
func (s *shard) lateLock(k uint64) {
	s.growLocked() // want `call of //repro:requires-lock growLocked from lateLock`
	s.mu.Lock()
	s.items[k] = 0
	s.mu.Unlock()
}

// unlockedFirst takes the lock and releases it before the call: an
// acquire earlier in the body is not a lock held at the call.
func (s *shard) unlockedFirst(k uint64) {
	s.mu.Lock()
	s.items[k] = 0
	s.mu.Unlock()
	s.growLocked() // want `call of //repro:requires-lock growLocked from unlockedFirst`
}

// sometimes holds the lock on one path to the call only.
func (s *shard) sometimes(k uint64) {
	if k > 0 {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	s.growLocked() // want `call of //repro:requires-lock growLocked from sometimes`
}

// later hands the helper to a closure, which may run after the deferred
// unlock.
func (s *shard) later() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() {
		s.growLocked() // want `call of //repro:requires-lock growLocked from a function literal in later`
	}
}

// each skips some shards and never locks the others: the call is flagged
// once, at its own block, not again at the range head.
func each(ss []shard) {
	for i := range ss {
		if len(ss[i].items) == 0 {
			continue
		}
		ss[i].growLocked() // want `call of //repro:requires-lock growLocked from each`
	}
}
