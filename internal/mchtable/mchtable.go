// Package mchtable is a multiple-choice hash table: the data structure
// the paper's introduction motivates for routers and other hardware hash
// tables. Keys live in buckets of a fixed number of slots; each key has d
// candidate buckets and is stored in the least loaded (ties to the first),
// so bucket occupancy follows the balanced-allocation load distribution
// and overflow can be provisioned from the paper's tables.
//
// The table supports both hashing disciplines:
//
//   - IndependentHashes: d separately keyed SipHash evaluations per key —
//     the fully random model.
//   - DoubleHashing: one SipHash evaluation split into (f, g), candidates
//     f + k·g mod buckets — the paper's scheme, one hash instead of d.
//
// Keys that overflow all d candidate buckets go to a small stash, mirroring
// hardware designs; the paper's load tables predict how rarely that
// happens (e.g. with 4 choices and 3 slots per bucket at full occupancy,
// the overflow fraction is ~2·10^-5 per Table 1(b)).
package mchtable

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hashes"
	"repro/internal/stats"
)

// HashMode selects how candidate buckets are derived from a key.
type HashMode int

const (
	// IndependentHashes uses d independently keyed hash evaluations.
	IndependentHashes HashMode = iota
	// DoubleHashing derives all candidates from one hash evaluation.
	DoubleHashing
)

// String returns the mode's display name.
func (m HashMode) String() string {
	switch m {
	case IndependentHashes:
		return "independent-hashes"
	case DoubleHashing:
		return "double-hashing"
	default:
		return fmt.Sprintf("HashMode(%d)", int(m))
	}
}

// Config declares a table.
type Config struct {
	Buckets        int      // number of buckets (required, > 0)
	SlotsPerBucket int      // slots per bucket (required, > 0)
	D              int      // candidate buckets per key (required, > 0)
	Mode           HashMode // hashing discipline
	Seed           uint64   // hash key material
	StashSize      int      // overflow stash capacity; 0 means 32
}

// Table is a multiple-choice hash table from uint64 keys to uint64 values.
// It is not safe for concurrent use; internal/cmap provides the sharded,
// lock-protected variant over the same placement Core.
type Table struct {
	cfg     Config
	core    *Core[uint64, uint64]
	deriver *hashes.Deriver
	sipKeys []hashes.SipKey
	scratch []uint32
	// delScratch holds the deleted key's candidates during Delete, because
	// Core.Delete's stash-drain callback recomputes candidates of *stashed*
	// keys into scratch — the two sets must not alias.
	delScratch []uint32
}

// New returns an empty table. It panics on invalid configuration.
func New(cfg Config) *Table {
	if cfg.D <= 0 || (cfg.D > 1 && cfg.D >= cfg.Buckets) {
		panic(fmt.Sprintf("mchtable: D = %d with %d buckets", cfg.D, cfg.Buckets))
	}
	if cfg.StashSize == 0 {
		cfg.StashSize = 32
	}
	t := &Table{
		cfg:        cfg,
		core:       NewCore[uint64, uint64](cfg.Buckets, cfg.SlotsPerBucket, cfg.StashSize),
		deriver:    hashes.NewDeriver(cfg.Buckets),
		scratch:    make([]uint32, cfg.D),
		delScratch: make([]uint32, cfg.D),
	}
	nKeys := 1
	if cfg.Mode == IndependentHashes {
		nKeys = cfg.D
	}
	for i := 0; i < nKeys; i++ {
		t.sipKeys = append(t.sipKeys, hashes.SipKeyFromSeed(cfg.Seed+uint64(i)*0x9E3779B97F4A7C15))
	}
	return t
}

// digest hashes key with sip key i.
func (t *Table) digest(key uint64, i int) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], key)
	return hashes.SipHash24(t.sipKeys[i], buf[:])
}

// candidates fills t.scratch with key's candidate buckets.
func (t *Table) candidates(key uint64) []uint32 {
	switch t.cfg.Mode {
	case IndependentHashes:
		for i := range t.scratch {
			t.scratch[i] = uint32(t.digest(key, i) % uint64(t.cfg.Buckets))
		}
	case DoubleHashing:
		t.deriver.CandidateBins(t.digest(key, 0), t.scratch)
	}
	return t.scratch
}

// Put stores key → val, updating in place if key is present. It reports
// whether the pair is stored; false means every candidate bucket and the
// stash were full (the insertion is rejected, table unchanged). The key
// itself serves as the core's candidate-re-derivation tag: Table supports
// both hashing disciplines, so candidates are recomputed from the key
// (internal/cmap stores the in-shard digest instead).
func (t *Table) Put(key, val uint64) bool {
	return t.core.Put(t.candidates(key), nil, key, val, key)
}

// Get returns the value stored for key.
func (t *Table) Get(key uint64) (uint64, bool) {
	v, _, ok := t.core.SeqGet(t.core.View(), t.candidates(key), key, key)
	return v, ok
}

// Delete removes key, reporting whether it was present. Freeing a bucket
// slot triggers a stash drain: any stashed key with that bucket among its
// candidates moves back into the table, so transient overflow does not
// pin stash capacity forever.
func (t *Table) Delete(key uint64) bool {
	copy(t.delScratch, t.candidates(key))
	return t.core.Delete(t.delScratch, nil, key, key, t.candidates)
}

// Len returns the number of stored pairs (including stashed ones).
func (t *Table) Len() int { return t.core.Len() }

// Range calls fn for every stored pair until fn returns false, in the
// core's deterministic order (buckets, then stash). fn must not mutate
// the table.
func (t *Table) Range(fn func(key, val uint64) bool) {
	t.core.Range(func(k, v uint64, _ uint64) bool { return fn(k, v) })
}

// StashLen returns the number of stashed pairs — the overflow count.
func (t *Table) StashLen() int { return t.core.StashLen() }

// Occupancy returns stored pairs divided by total slot capacity.
func (t *Table) Occupancy() float64 { return t.core.Occupancy() }

// BucketLoadHist returns the histogram of occupied slots per bucket — the
// quantity the paper's load tables predict.
func (t *Table) BucketLoadHist() *stats.Hist {
	v := t.core.View()
	loads := make([]int64, v.Slots()+1)
	v.AddLoads(loads)
	var h stats.Hist
	for load, n := range loads {
		if n > 0 {
			h.AddN(load, n)
		}
	}
	return &h
}
