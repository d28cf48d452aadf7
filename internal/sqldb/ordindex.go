package sqldb

import "slices"

// Ordered index component (the tentpole of the storage-engine
// modernization). Every column index is dual-structure: the hash buckets
// in colIndex answer equality probes in O(1), and the skip list here
// keeps the same postings in compareValues order so range predicates
// (<, <=, >, >=, BETWEEN) and ORDER BY on the column are served by an
// ordered walk — no full scan, no sort step.
//
// A skip list rather than a B-tree because deletes are frequent (every
// UPDATE in the time-travel layer closes a version, and repair demotes
// and purges rows) and skip-list deletion is a local unlink with no
// rebalancing. The list stores one node per distinct key with a posting
// list of row slots kept sorted ascending, mirroring the hash buckets:
// equal-key rows therefore come back in slot (insertion) order, which is
// exactly the tie order the stable sort it replaces would produce.
//
// NULL never participates in an ordered comparison (compareValues is
// undefined on it), so NULL rows live in a separate sorted slot list:
// range scans skip them — a range predicate is never true of NULL — and
// ORDER BY walks emit them first ascending and last descending, matching
// the executor's NULL placement rules.

// ordLevels bounds the skip-list height; 2^24 distinct keys is far past
// anything the engine holds in memory.
const ordLevels = 24

type ordNode struct {
	key   Value
	slots []int // row slots holding key, sorted ascending
	next  []*ordNode
}

// ordIndex is the ordered half of a column index.
type ordIndex struct {
	head      *ordNode // sentinel; head.next[0] is the smallest key
	level     int      // highest level currently in use
	rng       uint64   // xorshift64 state for level draws
	nullSlots []int    // slots whose key is NULL, sorted ascending
}

func newOrdIndex() *ordIndex {
	return &ordIndex{
		head:  &ordNode{next: make([]*ordNode, ordLevels)},
		level: 1,
		rng:   0x9e3779b97f4a7c15, // fixed seed: structure is internal, keep rebuilds deterministic
	}
}

// randLevel draws a geometric level in [1, ordLevels] with p = 1/4.
func (ix *ordIndex) randLevel() int {
	x := ix.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ix.rng = x
	lvl := 1
	for x&3 == 0 && lvl < ordLevels {
		lvl++
		x >>= 2
	}
	return lvl
}

// seek returns the rightmost node strictly before key at every level.
// Keys compare via compareValues; the caller guarantees key is non-NULL,
// and every stored key is non-NULL, so the comparison is total.
func (ix *ordIndex) seek(key Value, trail *[ordLevels]*ordNode) *ordNode {
	n := ix.head
	for lvl := ix.level - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil {
			if c, _ := compareValues(n.next[lvl].key, key); c < 0 {
				n = n.next[lvl]
				continue
			}
			break
		}
		trail[lvl] = n
	}
	return n.next[0] // first node with key >= target, or nil
}

func (ix *ordIndex) add(v Value, slot int) {
	if v.IsNull() {
		ix.nullSlots = insertSlot(ix.nullSlots, slot)
		return
	}
	var trail [ordLevels]*ordNode
	n := ix.seek(v, &trail)
	if n != nil {
		if c, _ := compareValues(n.key, v); c == 0 {
			n.slots = insertSlot(n.slots, slot)
			return
		}
	}
	lvl := ix.randLevel()
	for ix.level < lvl {
		trail[ix.level] = ix.head
		ix.level++
	}
	nn := &ordNode{key: v, slots: []int{slot}, next: make([]*ordNode, lvl)}
	for i := 0; i < lvl; i++ {
		nn.next[i] = trail[i].next[i]
		trail[i].next[i] = nn
	}
}

func (ix *ordIndex) remove(v Value, slot int) {
	if v.IsNull() {
		ix.nullSlots = deleteSlot(ix.nullSlots, slot)
		return
	}
	var trail [ordLevels]*ordNode
	n := ix.seek(v, &trail)
	if n == nil {
		return
	}
	if c, _ := compareValues(n.key, v); c != 0 {
		return
	}
	n.slots = deleteSlot(n.slots, slot)
	if len(n.slots) > 0 {
		return
	}
	// Unlink the emptied node at every level it occupies.
	for i := 0; i < len(n.next); i++ {
		if trail[i].next[i] == n {
			trail[i].next[i] = n.next[i]
		}
	}
	for ix.level > 1 && ix.head.next[ix.level-1] == nil {
		ix.level--
	}
}

// rangeBoundVal is one side of an ordered scan; nil means unbounded.
type rangeBoundVal struct {
	v    Value
	incl bool
}

// ascendRange walks posting lists for keys within [lo, hi] in ascending
// key order. fn returning false stops the walk. NULL slots are never
// visited: a range predicate is not true of NULL.
func (ix *ordIndex) ascendRange(lo, hi *rangeBoundVal, fn func(slots []int) bool) {
	var n *ordNode
	if lo == nil {
		n = ix.head.next[0]
	} else {
		var trail [ordLevels]*ordNode
		n = ix.seek(lo.v, &trail)
		if n != nil && !lo.incl {
			if c, _ := compareValues(n.key, lo.v); c == 0 {
				n = n.next[0]
			}
		}
	}
	for ; n != nil; n = n.next[0] {
		if hi != nil {
			c, _ := compareValues(n.key, hi.v)
			if c > 0 || (c == 0 && !hi.incl) {
				return
			}
		}
		if !fn(n.slots) {
			return
		}
	}
}

// insertSlot inserts slot into a sorted posting list (no-op when
// present), the same discipline the hash buckets use.
func insertSlot(b []int, slot int) []int {
	if i, found := slices.BinarySearch(b, slot); !found {
		b = slices.Insert(b, i, slot)
	}
	return b
}

// deleteSlot removes slot from a sorted posting list if present.
func deleteSlot(b []int, slot int) []int {
	if i, found := slices.BinarySearch(b, slot); found {
		b = slices.Delete(b, i, i+1)
	}
	return b
}
