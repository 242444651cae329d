// Package openaddr implements classical open-addressed hash tables with
// pluggable probe sequences: standard double hashing (the technique the
// paper adapts to balanced allocations), idealized uniform probing, and
// linear probing as a clustering-prone contrast.
//
// The related-work observation it reproduces (Guibas–Szemerédi,
// Lueker–Molodowitch): at constant load α, the expected cost of an
// unsuccessful search under double hashing is 1/(1−α) up to lower-order
// terms — the same as idealized random probing — while linear probing
// degrades much faster.
package openaddr

import (
	"fmt"

	"repro/internal/hashes"
	"repro/internal/rng"
)

// Probe selects the probe sequence discipline.
type Probe int

const (
	// DoubleHash probes f(x) + i·g(x) mod n with g(x) coprime to n.
	DoubleHash Probe = iota
	// Uniform probes an idealized per-key random sequence (fresh uniform
	// slot each probe) — the textbook "random probing" benchmark.
	Uniform
	// Linear probes f(x), f(x)+1, f(x)+2, ... mod n.
	Linear
)

// String returns the probe discipline's display name.
func (p Probe) String() string {
	switch p {
	case DoubleHash:
		return "double-hash"
	case Uniform:
		return "uniform"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("Probe(%d)", int(p))
	}
}

// Slot states. A deleted slot becomes a tombstone: searches probe past it
// (the key they want may have been placed beyond it before the delete),
// while insertions reuse it. Tombstones never revert to empty, so the
// "stop at the first empty slot" search rule stays exact across any
// delete/insert history.
const (
	slotEmpty uint8 = iota
	slotFull
	slotDead
)

// Table is an open-addressed hash table of uint64 keys, each carrying a
// uint64 value. Deletion uses tombstones, the classical open-addressing
// scheme; a long-lived table under heavy delete/insert churn accumulates
// tombstones and its probe costs drift toward the full-table worst case
// until rebuilt (this package is the probe-cost reproduction vehicle, so
// it keeps the textbook behaviour rather than hiding it behind automatic
// rebuilds).
type Table struct {
	keys    []uint64
	vals    []uint64
	state   []uint8
	size    int
	dead    int // tombstone count
	probe   Probe
	seed    uint64
	deriver *hashes.Deriver
}

// New returns a table with the given capacity and probe discipline. For
// double hashing the capacity should be prime or a power of two so the
// stride domain is simple; other capacities work via coprime reduction.
func New(capacity int, probe Probe, seed uint64) *Table {
	if capacity <= 1 {
		panic(fmt.Sprintf("openaddr: capacity = %d", capacity))
	}
	return &Table{
		keys:    make([]uint64, capacity),
		vals:    make([]uint64, capacity),
		state:   make([]uint8, capacity),
		probe:   probe,
		seed:    seed,
		deriver: hashes.NewDeriver(capacity),
	}
}

// Len returns the number of stored keys.
func (t *Table) Len() int { return t.size }

// Cap returns the table capacity.
func (t *Table) Cap() int { return len(t.keys) }

// Tombstones returns the number of tombstoned (deleted, not yet reused)
// slots.
func (t *Table) Tombstones() int { return t.dead }

// LoadFactor returns size/capacity.
func (t *Table) LoadFactor() float64 { return float64(t.size) / float64(len(t.keys)) }

// choices derives the key's (f, g) probe parameters from one mixed digest
// via the shared hashes.Deriver — the same digest → (start, coprime
// stride) construction used by the cuckoo and multiple-choice tables.
func (t *Table) choices(key uint64) hashes.Choices {
	return t.deriver.DeriveChoices(rng.Mix64(key ^ t.seed))
}

// probeSeq streams the probe sequence for key to fn until fn returns
// false. For Uniform, the sequence is an idealized fresh-uniform stream
// derived deterministically from the key.
func (t *Table) probeSeq(key uint64, fn func(slot int) bool) {
	n := len(t.keys)
	switch t.probe {
	case DoubleHash:
		c := t.choices(key)
		slot, step := int(c.F), int(c.G)
		for {
			if !fn(slot) {
				return
			}
			slot += step
			if slot >= n {
				slot -= n
			}
		}
	case Linear:
		slot := int(t.choices(key).F)
		for {
			if !fn(slot) {
				return
			}
			slot++
			if slot == n {
				slot = 0
			}
		}
	case Uniform:
		src := rng.NewSplitMix64(rng.Mix64(key ^ t.seed))
		for {
			if !fn(rng.Intn(src, n)) {
				return
			}
		}
	default:
		panic(fmt.Sprintf("openaddr: unknown probe %d", int(t.probe)))
	}
}

// locate probes for key, returning the slot holding it (-1 if absent),
// the first reusable slot of its sequence — tombstone or empty — for an
// insertion (-1 if none), and the probe count. An unsuccessful search
// costs the probes up to and including the first empty slot, the
// classical accounting; tombstones do not terminate a search.
//
// With no empty slot left anywhere (size + dead == capacity), nothing
// terminates a probe sequence: the permutation probes (DoubleHash,
// Linear) are bounded by capacity — n probes visit every slot — while
// Uniform probes are drawn with replacement, so n probes need not visit
// the key's slot and bounding by probe count alone can false-negative on
// a present key; Uniform therefore falls back to a direct scan, where
// every slot is seen exactly once and membership is exact. Empty slots
// are only ever consumed (deletes make tombstones, not empties), so once
// a table enters this regime it stays there and the fallback remains
// consistent for every key ever stored.
func (t *Table) locate(key uint64) (keySlot, freeSlot, probes int) {
	n := len(t.keys)
	keySlot, freeSlot = -1, -1
	if t.probe == Uniform && t.size+t.dead == n {
		for slot := 0; slot < n; slot++ {
			probes++
			switch t.state[slot] {
			case slotFull:
				if t.keys[slot] == key {
					keySlot = slot
					return keySlot, freeSlot, probes
				}
			case slotDead:
				if freeSlot < 0 {
					freeSlot = slot
				}
			}
		}
		return keySlot, freeSlot, probes
	}
	t.probeSeq(key, func(slot int) bool {
		probes++
		switch t.state[slot] {
		case slotEmpty:
			if freeSlot < 0 {
				freeSlot = slot
			}
			return false
		case slotDead:
			if freeSlot < 0 {
				freeSlot = slot
			}
		default:
			if t.keys[slot] == key {
				keySlot = slot
				return false
			}
		}
		// Permutation sequences (DoubleHash, Linear) cover every slot in n
		// probes; Uniform runs until the empty slot that must exist in
		// this branch terminates it.
		return probes < n || t.probe == Uniform
	})
	return keySlot, freeSlot, probes
}

// put stores key (with val when setVal — Insert keeps a resident key's
// value untouched, Put overwrites it) and returns the probes used. ok is
// false when every slot holds a live key and key is absent.
func (t *Table) put(key, val uint64, setVal bool) (probes int, ok bool) {
	keySlot, freeSlot, probes := t.locate(key)
	if keySlot >= 0 {
		if setVal {
			t.vals[keySlot] = val
		}
		return probes, true
	}
	if freeSlot < 0 {
		return probes, false
	}
	t.placeAt(freeSlot, key, val)
	return probes, true
}

// placeAt stores key → val in slot s, which locate reported reusable
// (empty or tombstoned).
func (t *Table) placeAt(s int, key, val uint64) {
	if t.state[s] == slotDead {
		t.dead--
	}
	t.state[s] = slotFull
	t.keys[s] = key
	t.vals[s] = val
	t.size++
}

// deleteAt tombstones occupied slot s, zeroing the stored pair.
func (t *Table) deleteAt(s int) {
	t.state[s] = slotDead
	t.keys[s] = 0
	t.vals[s] = 0
	t.dead++
	t.size--
}

// Insert stores key and returns the number of probes used. Inserting a
// key that is already present finds it and returns without duplicating
// (and without touching its stored value). ok is false when the table is
// full of live keys and the key absent.
func (t *Table) Insert(key uint64) (probes int, ok bool) {
	return t.put(key, 0, false)
}

// Put stores key → val, updating the value in place if key is present,
// and reports whether the pair is stored; false means the table is full
// of live keys and key absent (the map unchanged).
func (t *Table) Put(key, val uint64) bool {
	_, ok := t.put(key, val, true)
	return ok
}

// Get returns the value stored for key.
func (t *Table) Get(key uint64) (uint64, bool) {
	if slot, _, _ := t.locate(key); slot >= 0 {
		return t.vals[slot], true
	}
	return 0, false
}

// Delete removes key, reporting whether it was present. The freed slot
// becomes a tombstone (see the Table comment).
func (t *Table) Delete(key uint64) bool {
	slot, _, _ := t.locate(key)
	if slot < 0 {
		return false
	}
	t.deleteAt(slot)
	return true
}

// Range calls fn for every stored pair until fn returns false, in slot
// order (tombstones skipped). fn must not mutate the table.
func (t *Table) Range(fn func(key, val uint64) bool) {
	for s, st := range t.state {
		if st == slotFull && !fn(t.keys[s], t.vals[s]) {
			return
		}
	}
}

// Lookup reports whether key is present and how many probes the search
// used. An unsuccessful search costs the probes up to and including the
// first empty slot, the classical accounting.
func (t *Table) Lookup(key uint64) (found bool, probes int) {
	slot, _, probes := t.locate(key)
	return slot >= 0, probes
}

// FillTo inserts synthetic keys until the load factor reaches alpha,
// returning the mean probes per insertion.
func (t *Table) FillTo(alpha float64, src rng.Source) float64 {
	if alpha < 0 || alpha >= 1 {
		panic(fmt.Sprintf("openaddr: alpha = %v", alpha))
	}
	target := int(alpha * float64(len(t.keys)))
	total, count := 0, 0
	for t.size < target {
		p, ok := t.Insert(src.Uint64())
		if ok {
			total += p
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// UnsuccessfulSearchCost measures the mean probe count of searches for
// `samples` random absent keys (random keys collide with stored ones with
// probability ~2^-64, so all searches are unsuccessful).
func (t *Table) UnsuccessfulSearchCost(samples int, src rng.Source) float64 {
	if samples <= 0 {
		panic(fmt.Sprintf("openaddr: samples = %d", samples))
	}
	total := 0
	for i := 0; i < samples; i++ {
		_, p := t.Lookup(src.Uint64())
		total += p
	}
	return float64(total) / float64(samples)
}
