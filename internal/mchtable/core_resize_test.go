package mchtable

import (
	"testing"

	"repro/internal/hashes"
	"repro/internal/rng"
)

// geom bundles a geometry's candidate derivation for resize tests: tag is
// the key itself (as in Table), mixed so (f, g) varies with the geometry's
// bucket count. Each call site gets its own buffer so op candidates never
// alias drain/migrate candidates.
func geom(buckets, d int) func(tag uint64) []uint32 {
	der := hashes.NewDeriver(buckets)
	buf := make([]uint32, d)
	return func(tag uint64) []uint32 {
		der.CandidateBins(rng.Mix64(tag), buf)
		return buf
	}
}

// get is a reader's lookup with no writer to validate against: SeqGet on
// c's current geometry and, for a miss mid-resize, on Next's with
// newCands, whose depths count past the old probe sequence.
func get[K comparable, V any](c *Core[K, V], oldCands, newCands []uint32, key K, tag uint64) (V, int, bool) {
	v, depth, ok := c.SeqGet(c.View(), oldCands, key, tag)
	if next := c.Next(); !ok && next != nil {
		if v, depth, ok = next.SeqGet(next.View(), newCands, key, tag); ok {
			depth += len(oldCands) + 1
		}
	}
	return v, depth, ok
}

// checkLoads requires c's load histogram, over its geometry and, mid-
// resize, Next's, to count every bucket of both and every pair outside
// the stashes.
func checkLoads[K comparable, V any](t *testing.T, c *Core[K, V]) {
	t.Helper()
	loads := make([]int64, c.SlotsPerBucket()+1)
	c.View().AddLoads(loads)
	buckets := c.Buckets()
	if next := c.Next(); next != nil {
		next.View().AddLoads(loads)
		buckets += next.Buckets()
	}
	var total, held int64
	for load, n := range loads {
		total += n
		held += int64(load) * n
	}
	if total != int64(buckets) || held != int64(c.Len()-c.StashLen()) {
		t.Fatalf("load histogram %v counts %d buckets holding %d pairs; want %d buckets, %d pairs",
			loads, total, held, buckets, c.Len()-c.StashLen())
	}
}

func TestCoreResizeMigratesEverything(t *testing.T) {
	const (
		oldBuckets = 32
		newBuckets = 64
		slots      = 2
		d          = 3
	)
	c := NewCore[uint64, uint64](oldBuckets, slots, 8)
	oldOp, newOp := geom(oldBuckets, d), geom(newBuckets, d)
	newDrain := geom(newBuckets, d)

	var stored []uint64
	for k := uint64(1); k <= 60; k++ {
		if c.Put(oldOp(k), nil, k, k*10, k) {
			stored = append(stored, k)
		}
	}
	if c.StashLen() == 0 {
		t.Fatal("want stash pressure before the resize")
	}
	before := c.Len()

	c.StartResize(newBuckets)
	if !c.Resizing() || c.Pending() != before {
		t.Fatalf("Resizing=%v Pending=%d want %d", c.Resizing(), c.Pending(), before)
	}
	if c.Capacity() != oldBuckets*slots+newBuckets*slots {
		t.Fatalf("mid-resize Capacity = %d", c.Capacity())
	}

	// Migrate in small batches; every stored key must stay reachable with
	// the right value at every step.
	steps := 0
	for c.Resizing() {
		moved := c.Migrate(3, newDrain)
		if moved == 0 && c.Resizing() {
			t.Fatal("migration stalled with backlog remaining")
		}
		checkLoads(t, c)
		steps++
		for _, k := range stored {
			// The caller always branches on Resizing() to pick the current
			// primary geometry — after promotion the new candidates are it.
			var v uint64
			var ok bool
			if c.Resizing() {
				v, _, ok = get(c, oldOp(k), newOp(k), k, k)
			} else {
				v, _, ok = get(c, newOp(k), nil, k, k)
			}
			if !ok || v != k*10 {
				t.Fatalf("step %d: key %d unreachable mid-migration (v=%d ok=%v)", steps, k, v, ok)
			}
		}
	}
	if steps < 2 {
		t.Fatalf("batch size 3 finished in %d steps; migration was not incremental", steps)
	}
	if c.Resizes() != 1 {
		t.Fatalf("Resizes = %d", c.Resizes())
	}
	if c.Buckets() != newBuckets || c.Capacity() != newBuckets*slots {
		t.Fatalf("promoted geometry: buckets=%d capacity=%d", c.Buckets(), c.Capacity())
	}
	if c.Len() != before {
		t.Fatalf("Len %d -> %d across resize", before, c.Len())
	}
	// The promoted core serves plain ops with new-geometry candidates.
	for _, k := range stored {
		if v, _, ok := get(c, newOp(k), nil, k, k); !ok || v != k*10 {
			t.Fatalf("key %d lost after promotion", k)
		}
		if !c.Delete(newOp(k), nil, k, k, newDrain) {
			t.Fatalf("key %d not deletable after promotion", k)
		}
		checkLoads(t, c)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", c.Len())
	}
}

func TestCoreDualOpsMidResize(t *testing.T) {
	const (
		oldBuckets = 16
		newBuckets = 32
		d          = 2
	)
	c := NewCore[uint64, uint64](oldBuckets, 2, 4)
	oldOp, newOp := geom(oldBuckets, d), geom(newBuckets, d)
	newDrain := geom(newBuckets, d)

	for k := uint64(1); k <= 20; k++ {
		if !c.Put(oldOp(k), nil, k, k, k) {
			t.Fatalf("put %d rejected", k)
		}
	}
	c.StartResize(newBuckets)

	// A fresh key lands in the new geometry without touching the backlog.
	pending := c.Pending()
	if !c.Put(oldOp(100), newOp(100), 100, 100, 100) {
		t.Fatal("Put of a fresh key rejected")
	}
	if c.Pending() != pending {
		t.Fatalf("fresh insert changed the backlog: %d -> %d", pending, c.Pending())
	}
	if v, _, ok := get(c, oldOp(100), newOp(100), 100, 100); !ok || v != 100 {
		t.Fatal("fresh key unreachable mid-resize")
	}

	// Updating an old-resident key moves it across (piggybacked migration).
	if !c.Put(oldOp(1), newOp(1), 1, 111, 1) {
		t.Fatal("Put update rejected")
	}
	if c.Pending() != pending-1 {
		t.Fatalf("update of an old resident did not migrate it: backlog %d -> %d", pending, c.Pending())
	}
	if v, _, ok := get(c, oldOp(1), newOp(1), 1, 1); !ok || v != 111 {
		t.Fatalf("moved key: v=%d ok=%v", v, ok)
	}

	// Deletes find keys in either geometry.
	if !c.Delete(oldOp(2), newOp(2), 2, 2, newDrain) {
		t.Fatal("old-resident delete missed")
	}
	if !c.Delete(oldOp(100), newOp(100), 100, 100, newDrain) {
		t.Fatal("new-resident delete missed")
	}
	if c.Delete(oldOp(2), newOp(2), 2, 2, newDrain) {
		t.Fatal("double delete succeeded")
	}
	if _, _, ok := get(c, oldOp(2), newOp(2), 2, 2); ok {
		t.Fatal("deleted key still reachable")
	}

	// Len spans both geometries: 20 initial + 1 fresh - 2 deleted.
	if c.Len() != 19 {
		t.Fatalf("Len = %d mid-resize", c.Len())
	}
	checkLoads(t, c)
	// Drain the rest and re-check membership.
	for c.Resizing() {
		if c.Migrate(4, newDrain) == 0 && c.Resizing() {
			t.Fatal("migration stalled")
		}
		checkLoads(t, c)
	}
	if c.Len() != 19 {
		t.Fatalf("Len = %d after promotion", c.Len())
	}
	if v, _, ok := get(c, newOp(1), nil, 1, 1); !ok || v != 111 {
		t.Fatal("moved key lost its updated value across promotion")
	}
}

func TestCoreResizeGuards(t *testing.T) {
	c := NewCore[uint64, uint64](8, 1, 2)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("same size", func() { c.StartResize(8) })
	mustPanic("shrink", func() { c.StartResize(4) })
	mustPanic("non-positive", func() { c.StartResize(0) })
	if c.Migrate(10, nil) != 0 {
		t.Error("Migrate on an idle core moved entries")
	}
	c.StartResize(16)
	mustPanic("double StartResize", func() { c.StartResize(32) })

	// On an idle core, Put and Delete ignore next-geometry candidates:
	// given them, they act exactly as the settled operations do, down to
	// every placement and stash drain.
	op, nextOp, drain := geom(8, 2), geom(16, 2), geom(8, 2)
	with, without := NewCore[uint64, uint64](8, 1, 2), NewCore[uint64, uint64](8, 1, 2)
	for k := uint64(1); k <= 12; k++ {
		if got, want := with.Put(op(k), nextOp(k), k, k, k), without.Put(op(k), nil, k, k, k); got != want {
			t.Fatalf("idle Put(%d) with next candidates = %v, settled %v", k, got, want)
		}
	}
	if without.StashLen() == 0 {
		t.Fatal("no stashed pair for the deletes to drain")
	}
	for k := uint64(1); k <= 12; k += 3 {
		if got, want := with.Delete(op(k), nextOp(k), k, k, drain), without.Delete(op(k), nil, k, k, drain); got != want {
			t.Fatalf("idle Delete(%d) with next candidates = %v, settled %v", k, got, want)
		}
	}
	for k := uint64(1); k <= 12; k++ { // the probe depth names the candidate bucket, or the stash
		if _, got, ok := get(with, op(k), nil, k, k); ok {
			if _, want, _ := get(without, op(k), nil, k, k); got != want {
				t.Fatalf("key %d at depth %d with next candidates, settled %d", k, got, want)
			}
		} else if _, _, ok := get(without, op(k), nil, k, k); ok {
			t.Fatalf("key %d missing with next candidates, stored settled", k)
		}
	}
	if with.Len() != without.Len() || with.StashLen() != without.StashLen() {
		t.Fatalf("cores hold %d pairs (%d stashed) and %d (%d)", with.Len(), with.StashLen(), without.Len(), without.StashLen())
	}
}

func TestCoreResizeEmptyPromotesImmediately(t *testing.T) {
	c := NewCore[uint64, uint64](8, 1, 2)
	c.StartResize(16)
	if c.Migrate(1, geom(16, 2)) != 0 {
		t.Fatal("empty core migrated entries")
	}
	if c.Resizing() {
		t.Fatal("empty backlog did not promote")
	}
	if c.Buckets() != 16 || c.Resizes() != 1 {
		t.Fatalf("buckets=%d resizes=%d", c.Buckets(), c.Resizes())
	}
}

func TestCoreGrowthMigrationNeverWedges(t *testing.T) {
	// Regression: an insert-heavy workload can fill the doubled geometry
	// (buckets and stash) before the backlog drains. Since a second
	// doubling cannot start mid-flight, a Migrate that refused to place
	// the entry at the cursor would wedge the resize forever. Growth
	// migrations therefore overflow the new stash past its cap rather
	// than stall; the pressure re-arms the next doubling after promotion.
	const d = 2
	c := NewCore[uint64, uint64](4, 1, 1)
	oldOp := geom(4, d)
	newOp, newDrain := geom(8, d), geom(8, d)

	var stored []uint64
	for k := uint64(1); k <= 20 && c.Len() < 5; k++ { // fill 4 slots + 1 stash
		if c.Put(oldOp(k), nil, k, k, k) {
			stored = append(stored, k)
		}
	}
	c.StartResize(8)
	// Saturate the new geometry through fresh inserts until it rejects.
	for k := uint64(100); k < 200; k++ {
		if !c.Put(oldOp(k), newOp(k), k, k, k) {
			break
		}
		stored = append(stored, k)
	}
	// The backlog must still drain to completion.
	for c.Resizing() {
		if c.Migrate(2, newDrain) == 0 && c.Resizing() {
			t.Fatal("growth migration wedged behind a full doubled geometry")
		}
	}
	if c.StashLen() <= c.StashCap() {
		t.Fatalf("stash %d within cap %d; the test never forced overflow", c.StashLen(), c.StashCap())
	}
	for _, k := range stored {
		if v, _, ok := get(c, newOp(k), nil, k, k); !ok || v != k {
			t.Fatalf("key %d lost completing a saturated growth migration", k)
		}
	}
	if c.Len() != len(stored) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(stored))
	}
	// Post-promotion, normal Puts respect the cap again: the next one
	// past a full table must reject, not grow the stash further.
	before := c.StashLen()
	if c.Put(newOp(999), nil, 999, 999, 999) {
		t.Fatal("capped Put accepted into a saturated promoted core")
	}
	if c.StashLen() != before {
		t.Fatal("rejected Put changed the stash")
	}
}
