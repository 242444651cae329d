package mchtable

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rng"
)

// TestCoreTagCollision gives two distinct keys the same caller-chosen
// tag, first side by side in one bucket and then in the stash: Put, Get,
// Delete and the stash drain must each resolve the right key. The tag
// filters which slots have their key compared; it never stands in for
// the key.
func TestCoreTagCollision(t *testing.T) {
	const shared = 0xC0111DE
	cands := []uint32{0} // d = 1: every key below competes for bucket 0
	candsOf := func(uint64) []uint32 { return []uint32{0} }
	want := func(t *testing.T, c *Core[string, int], key string, tag uint64, v int, ok bool) {
		t.Helper()
		if gv, _, gok := get(c, cands, nil, key, tag); gv != v || gok != ok {
			t.Fatalf("Get(%q) = (%d, %v), want (%d, %v)", key, gv, gok, v, ok)
		}
	}

	t.Run("bucket", func(t *testing.T) {
		c := NewCore[string, int](4, 2, 4)
		if !c.Put(cands, nil, "a", 1, shared) || !c.Put(cands, nil, "b", 2, shared) {
			t.Fatal("Put rejected")
		}
		if c.StashLen() != 0 || c.Len() != 2 {
			t.Fatalf("want both keys in bucket 0: Len %d, stash %d", c.Len(), c.StashLen())
		}
		want(t, c, "a", shared, 1, true)
		want(t, c, "b", shared, 2, true) // skips "a"'s slot: tag matches, key does not
		want(t, c, "c", shared, 0, false)
		if !c.Put(cands, nil, "b", 20, shared) || c.Len() != 2 {
			t.Fatalf("overwrite of b: Len %d", c.Len())
		}
		want(t, c, "a", shared, 1, true)
		want(t, c, "b", shared, 20, true)
		if c.Delete(cands, nil, "c", shared, candsOf) {
			t.Fatal("Delete of an absent key sharing the tag succeeded")
		}
		if !c.Delete(cands, nil, "a", shared, candsOf) {
			t.Fatal("Delete(a) missed")
		}
		want(t, c, "a", shared, 0, false)
		want(t, c, "b", shared, 20, true)
	})

	t.Run("stash", func(t *testing.T) {
		c := NewCore[string, int](4, 2, 4)
		// Fill bucket 0 with keys under other tags, so a and b overflow.
		if !c.Put(cands, nil, "x", 100, 1) || !c.Put(cands, nil, "y", 200, 2) {
			t.Fatal("fill rejected")
		}
		if !c.Put(cands, nil, "a", 1, shared) || !c.Put(cands, nil, "b", 2, shared) {
			t.Fatal("Put into the stash rejected")
		}
		if c.StashLen() != 2 {
			t.Fatalf("stash holds %d, want a and b", c.StashLen())
		}
		want(t, c, "a", shared, 1, true)
		want(t, c, "b", shared, 2, true)
		if !c.Put(cands, nil, "b", 20, shared) || c.Len() != 4 {
			t.Fatalf("overwrite of stashed b: Len %d", c.Len())
		}
		want(t, c, "a", shared, 1, true)
		want(t, c, "b", shared, 20, true)

		// Freeing x's slot drains the first stashed entry, a, into bucket
		// 0; b stays stashed behind a slot that now carries its tag.
		if !c.Delete(cands, nil, "x", 1, candsOf) {
			t.Fatal("Delete(x) missed")
		}
		if c.StashLen() != 1 {
			t.Fatalf("drain left %d stashed, want 1", c.StashLen())
		}
		checkLoads(t, c)
		want(t, c, "a", shared, 1, true)
		want(t, c, "b", shared, 20, true)
		if v, depth, ok := get(c, cands, nil, "a", shared); !ok || v != 1 || depth != 0 {
			t.Fatalf("a after the drain: (%d, depth %d, %v), want (1, bucket 0, true)", v, depth, ok)
		}
		if _, depth, _ := get(c, cands, nil, "b", shared); depth != len(cands) {
			t.Fatalf("b resolved at depth %d, want the stash (%d)", depth, len(cands))
		}

		if !c.Delete(cands, nil, "b", shared, candsOf) {
			t.Fatal("Delete(b) missed the stash")
		}
		want(t, c, "a", shared, 1, true)
		want(t, c, "b", shared, 0, false)
		if !c.Delete(cands, nil, "a", shared, candsOf) {
			t.Fatal("Delete(a) missed the bucket")
		}
		want(t, c, "y", 2, 200, true)
		if c.Len() != 1 || c.StashLen() != 0 {
			t.Fatalf("Len %d, stash %d; want only y left", c.Len(), c.StashLen())
		}
	})
}

// TestTagLivesInRecord pins where a pair's tag is kept. A layout with
// arena fields stores it as the first 8 bytes of the pair's record, so
// its bucket and stash slots hold refs alone; an inline layout keeps a
// tags array beside its used flags. Either way every pair's tag must come
// back through Range unchanged after each path that moves or rewrites a
// slot: settled placement, a forced stash, a doubling migrated one entry
// at a time, a same-size rebuild after overwrites, and a stash drain
// after a delete.
func TestTagLivesInRecord(t *testing.T) {
	strKey := func(i int) string { return fmt.Sprintf("key-%04d", i) }
	u64Key := func(i int) uint64 { return uint64(i)*0x9e3779b9 + 1 }
	bytesVal := func(i, gen int) []byte { return []byte(strings.Repeat("v", i%7) + fmt.Sprint(i, ".", gen)) }
	u64Val := func(i, gen int) uint64 { return uint64(i)<<8 | uint64(gen) }
	// Slot bytes: an 8-byte ref plus any inline field, or, inline, a
	// 4-byte used flag, an 8-byte tag and both fields.
	t.Run("string-bytes", func(t *testing.T) { checkTagRoundTrip(t, strKey, bytesVal, 8) })
	t.Run("string-uint64", func(t *testing.T) { checkTagRoundTrip(t, strKey, u64Val, 8+8) })
	t.Run("uint64-bytes", func(t *testing.T) { checkTagRoundTrip(t, u64Key, bytesVal, 8+8) })
	t.Run("uint64-uint64", func(t *testing.T) { checkTagRoundTrip(t, u64Key, u64Val, 4+8+8+8) })
}

func checkTagRoundTrip[K comparable, V any](t *testing.T, key func(i int) K, val func(i, gen int) V, slotBytes int64) {
	const (
		buckets   = 31
		perBucket = 4
		d         = 3
		pairs     = 60
		collapsed = 16 // pairs sharing one tag, so they share their candidates in every geometry
	)
	tagOf := func(i int) uint64 {
		if i >= pairs {
			return rng.Mix64(0xC0111DE)
		}
		return rng.Mix64(uint64(i) + 1)
	}
	c := NewCore[K, V](buckets, perBucket, 32)
	index := make(map[K]int)
	gen := make([]int, pairs+collapsed) // each pair's value generation
	deleted := make(map[int]bool)

	checkLayout := func(phase string) {
		t.Helper()
		for _, s := range []*slots[K, V]{&c.slots, &c.stash.Load().slots} {
			n := len(s.refs) + len(s.used)
			wantTags := n
			if c.lay.inArena() {
				wantTags = 0
			}
			if len(s.tags) != wantTags {
				t.Fatalf("%s: %d slots hold %d tag words, want %d", phase, n, len(s.tags), wantTags)
			}
			if s.bytes() != int64(n)*slotBytes {
				t.Fatalf("%s: %d slots take %d bytes, want %d per slot", phase, n, s.bytes(), slotBytes)
			}
		}
	}
	checkTags := func(phase string) {
		t.Helper()
		seen := 0
		c.Range(func(k K, v V, tag uint64) bool {
			i, ok := index[k]
			switch {
			case !ok || deleted[i]:
				t.Fatalf("%s: Range yields key %v, which is not stored", phase, k)
			case tag != tagOf(i):
				t.Fatalf("%s: pair %d has tag %#x, want %#x", phase, i, tag, tagOf(i))
			case !reflect.DeepEqual(v, val(i, gen[i])):
				t.Fatalf("%s: pair %d has value %v, want %v", phase, i, v, val(i, gen[i]))
			}
			seen++
			return true
		})
		if want := len(index) - len(deleted); seen != want {
			t.Fatalf("%s: Range yields %d pairs, want %d", phase, seen, want)
		}
	}
	migrate := func(phase string) {
		t.Helper()
		drain := geom(c.Next().Buckets(), d)
		for steps := 1; c.Resizing(); steps++ {
			if c.Migrate(1, drain) == 0 && c.Resizing() {
				t.Fatalf("%s: migration stalled", phase)
			}
			if steps == pairs/2 {
				checkTags(phase + ", mid-migration")
			}
		}
	}

	op := geom(buckets, d)
	for i := range pairs + collapsed {
		index[key(i)] = i
		if !c.Put(op(tagOf(i)), nil, key(i), val(i, 0), tagOf(i)) {
			t.Fatalf("Put(%d) rejected", i)
		}
	}
	if c.StashLen() == 0 {
		t.Fatal("the collapsed pairs never overflowed into the stash")
	}
	checkLayout("placed")
	checkTags("placed")

	c.StartResize(2 * buckets)
	migrate("doubling")
	checkLayout("doubled")
	checkTags("doubled")

	op = geom(c.Buckets(), d)
	for i := range gen {
		gen[i]++
		if !c.Put(op(tagOf(i)), nil, key(i), val(i, gen[i]), tagOf(i)) {
			t.Fatalf("overwrite of %d rejected", i)
		}
	}
	c.StartRebuild()
	migrate("rebuild")
	checkTags("rebuilt")

	// Free a bucket slot of a collapsed pair: a stashed one, sharing its
	// candidates, must drain into it.
	stashed := c.StashLen()
	victim := -1
	for i := pairs; i < pairs+collapsed && victim < 0; i++ {
		if _, depth, ok := get(c, op(tagOf(i)), nil, key(i), tagOf(i)); ok && depth < d {
			victim = i
		}
	}
	if stashed == 0 || victim < 0 {
		t.Fatalf("after the rebuild: %d stashed, collapsed pair in a bucket %d", stashed, victim)
	}
	if !c.Delete(op(tagOf(victim)), nil, key(victim), tagOf(victim), geom(c.Buckets(), d)) {
		t.Fatalf("Delete(%d) missed", victim)
	}
	deleted[victim] = true
	if c.StashLen() != stashed-1 {
		t.Fatalf("the delete left %d stashed, want %d", c.StashLen(), stashed-1)
	}
	checkLayout("drained")
	checkTags("drained")
	for k, i := range index {
		if v, _, ok := get(c, op(tagOf(i)), nil, k, tagOf(i)); ok == deleted[i] || !deleted[i] && !reflect.DeepEqual(v, val(i, gen[i])) {
			t.Fatalf("Get(%v) = (%v, %v) after the drain", k, v, ok)
		}
	}
}
