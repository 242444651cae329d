// Package cuckoo implements d-ary cuckoo hashing with random-walk
// insertion, under both fully independent hash functions and double
// hashing. The paper's conclusion (and its follow-up, Mitzenmacher–Thaler
// 2012) asks whether double hashing preserves cuckoo hashing's behaviour;
// this package reproduces the empirical answer: success rates and
// insertion effort are essentially indistinguishable below the load
// threshold.
package cuckoo

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/hashes"
	"repro/internal/rng"
)

// Mode selects how a key's d candidate slots are derived.
type Mode int

const (
	// Independent derives d independently seeded hash values.
	Independent Mode = iota
	// DoubleHashed derives the d candidates as f + i·g mod n with g
	// coprime to n, from two hash values.
	DoubleHashed
)

// String returns the mode's display name.
func (m Mode) String() string {
	switch m {
	case Independent:
		return "independent"
	case DoubleHashed:
		return "double-hashed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Table is a d-ary cuckoo hash table of uint64 keys, one key per slot,
// using random-walk eviction. Slot occupancy is a uint8 0/1 array so the
// "first free candidate" rule is literally the engine's least-loaded
// selection with ties to the first.
//
// Each slot also carries a uint64 value that travels with its key
// through every eviction and unwind: the set API (Insert/Contains/Fill)
// and the map API (Put/Get/Delete/Range) share the placement machinery.
type Table struct {
	keys     []uint64
	vals     []uint64
	occupied []uint8 // 0 free, 1 occupied
	d        int
	mode     Mode
	seed     uint64
	src      rng.Source
	size     int
	maxKicks int
	deriver  *hashes.Deriver
	scratch  []uint32
	walk     []uint32 // victim slots of the current insertion, for unwinding
}

// New returns a cuckoo table with the given capacity, d >= 2 candidate
// slots per key, and eviction budget maxKicks (0 means 500). src drives
// the random-walk eviction choices.
func New(capacity, d int, mode Mode, seed uint64, src rng.Source) *Table {
	if capacity < 2 {
		panic(fmt.Sprintf("cuckoo: capacity = %d", capacity))
	}
	if d < 2 || d >= capacity {
		panic(fmt.Sprintf("cuckoo: d = %d with capacity %d", d, capacity))
	}
	if src == nil {
		panic("cuckoo: nil random source")
	}
	return &Table{
		keys:     make([]uint64, capacity),
		vals:     make([]uint64, capacity),
		occupied: make([]uint8, capacity),
		d:        d,
		mode:     mode,
		seed:     seed,
		src:      src,
		maxKicks: 500,
		deriver:  hashes.NewDeriver(capacity),
		scratch:  make([]uint32, d),
	}
}

// SetMaxKicks overrides the eviction budget.
func (t *Table) SetMaxKicks(k int) {
	if k <= 0 {
		panic(fmt.Sprintf("cuckoo: maxKicks = %d", k))
	}
	t.maxKicks = k
}

// Len returns the number of stored keys.
func (t *Table) Len() int { return t.size }

// Cap returns the table capacity.
func (t *Table) Cap() int { return len(t.keys) }

// LoadFactor returns size/capacity.
func (t *Table) LoadFactor() float64 { return float64(t.size) / float64(len(t.keys)) }

// candidates fills dst with key's d slots. Double hashing routes through
// the shared hashes.Deriver: one mixed digest splits into (f, g) with g
// coprime to the capacity, expanded by the engine's progression — the
// identical construction the multiple-choice hash table uses.
func (t *Table) candidates(key uint64, dst []uint32) {
	switch t.mode {
	case Independent:
		n := uint64(len(t.keys))
		for i := range dst {
			dst[i] = uint32(rng.Mix64(key^rng.Stream(t.seed, i)) % n)
		}
	case DoubleHashed:
		c := t.deriver.DeriveChoices(rng.Mix64(key ^ t.seed))
		engine.Progression(dst, c.F, c.G, uint32(len(t.keys)))
	default:
		panic(fmt.Sprintf("cuckoo: unknown mode %d", int(t.mode)))
	}
}

// find returns the slot holding key, or -1.
func (t *Table) find(key uint64) int {
	t.candidates(key, t.scratch)
	for _, s := range t.scratch {
		if t.occupied[s] != 0 && t.keys[s] == key {
			return int(s)
		}
	}
	return -1
}

// Contains reports whether key is stored.
func (t *Table) Contains(key uint64) bool { return t.find(key) >= 0 }

// Insert stores key, evicting residents along a random walk when all
// candidates are full. It returns the number of evictions performed and
// whether the insertion succeeded within the kick budget. When the budget
// runs out, the final displaced resident is re-stored greedily (one
// placement attempt into its candidate slots, no further evictions); if
// that lands, the insertion has in fact succeeded and ok is true. Only if
// the greedy re-store also fails does Insert report false, and then the
// whole eviction walk is unwound first, so a failed Insert leaves the
// table exactly as it was: every previously stored key remains present
// and the new key is absent. Failure normally means the table is beyond
// the load threshold and should be rebuilt larger.
//
// Inserting a key that is already present returns (0, true) without
// touching its stored value.
func (t *Table) Insert(key uint64) (kicks int, ok bool) {
	if t.Contains(key) {
		return 0, true
	}
	return t.insertNew(key, 0)
}

// Put stores key → val, updating the value in place if key is present.
// It reports whether the pair is stored; false means the insertion walk
// failed within the kick budget and was unwound (table unchanged).
func (t *Table) Put(key, val uint64) bool {
	if s := t.find(key); s >= 0 {
		t.vals[s] = val
		return true
	}
	_, ok := t.insertNew(key, val)
	return ok
}

// Get returns the value stored for key.
func (t *Table) Get(key uint64) (uint64, bool) {
	if s := t.find(key); s >= 0 {
		return t.vals[s], true
	}
	return 0, false
}

// Delete removes key, reporting whether it was present.
func (t *Table) Delete(key uint64) bool {
	s := t.find(key)
	if s < 0 {
		return false
	}
	t.clearSlot(s)
	return true
}

// Range calls fn for every stored pair until fn returns false, in slot
// order. fn must not mutate the table.
func (t *Table) Range(fn func(key, val uint64) bool) {
	for s, occ := range t.occupied {
		if occ != 0 && !fn(t.keys[s], t.vals[s]) {
			return
		}
	}
}

// clearSlot frees slot s, zeroing the stored pair.
func (t *Table) clearSlot(s int) {
	t.occupied[s] = 0
	t.keys[s] = 0
	t.vals[s] = 0
	t.size--
}

// insertNew runs the random-walk insertion of a key verified absent,
// carrying its value through every eviction swap (and the unwind, on
// failure) so values never detach from their keys.
func (t *Table) insertNew(key, val uint64) (kicks int, ok bool) {
	cur, curVal := key, val
	t.walk = t.walk[:0]
	for kicks = 0; kicks <= t.maxKicks; kicks++ {
		t.candidates(cur, t.scratch)
		// "First free candidate" is least-loaded selection over 0/1
		// occupancy with ties to the first — the engine's shared rule.
		if s, occ := engine.LeastLoadedFirst(t.occupied, t.scratch); occ == 0 {
			t.occupied[s] = 1
			t.keys[s] = cur
			t.vals[s] = curVal
			t.size++
			return kicks, true
		}
		// All candidates occupied: evict a random one and continue with
		// the displaced key.
		victim := t.scratch[rng.Intn(t.src, t.d)]
		t.walk = append(t.walk, victim)
		cur, t.keys[victim] = t.keys[victim], cur
		curVal, t.vals[victim] = t.vals[victim], curVal
	}
	// Budget exhausted: cur is a displaced resident (the new key itself
	// took the first victim's slot). Greedy re-store: one more placement
	// attempt for cur, without evicting.
	t.candidates(cur, t.scratch)
	if s, occ := engine.LeastLoadedFirst(t.occupied, t.scratch); occ == 0 {
		t.occupied[s] = 1
		t.keys[s] = cur
		t.vals[s] = curVal
		t.size++ // the walk's net effect is storing the new key
		return kicks, true
	}
	// Re-store failed too: unwind the walk (reverse the swaps) so the
	// table returns to its pre-insert state and only the new key is
	// rejected.
	for i := len(t.walk) - 1; i >= 0; i-- {
		v := t.walk[i]
		cur, t.keys[v] = t.keys[v], cur
		curVal, t.vals[v] = t.vals[v], curVal
	}
	return kicks, false
}

// FillResult summarizes a bulk load.
type FillResult struct {
	Attempted int
	Inserted  int
	TotalKick int
	Failed    int
}

// MeanKicks returns evictions per successful insertion.
func (r FillResult) MeanKicks() float64 {
	if r.Inserted == 0 {
		return 0
	}
	return float64(r.TotalKick) / float64(r.Inserted)
}

// Fill inserts count synthetic keys derived from keySrc and reports the
// outcome; it stops early after the first failure (the usual cuckoo
// rebuild point).
func (t *Table) Fill(count int, keySrc rng.Source) FillResult {
	var r FillResult
	for i := 0; i < count; i++ {
		r.Attempted++
		kicks, ok := t.Insert(keySrc.Uint64())
		if !ok {
			r.Failed++
			return r
		}
		r.Inserted++
		r.TotalKick += kicks
	}
	return r
}
