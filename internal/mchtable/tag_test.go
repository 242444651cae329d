package mchtable

import "testing"

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
