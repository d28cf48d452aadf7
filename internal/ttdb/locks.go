package ttdb

// Partition-granular locking (docs/repair.md).
//
// Through PR 1 every operation on a table — an exec, a two-phase
// re-execution, a rollback — held that table's single mutex for its full
// multi-statement span, so two repair workers touching disjoint rows of
// one hot table serialized at the DB layer even though the scheduler's
// dependency frontier had already proven them independent. This file
// replaces the table mutex with a per-table partition lock manager:
//
//   - an operation declares a *lock scope* before it runs: either a set
//     of keys in the table's designated lock column (the first declared
//     partition column) or the whole table;
//   - keyed scopes on disjoint keys run concurrently; a whole-table
//     scope excludes everything, which is the conservative fallback for
//     unpartitionable statements (no usable WHERE bound, a write to the
//     partition column itself, tables with no partition columns);
//   - acquisition is all-or-nothing under the manager's mutex with the
//     keys in sorted order, so operations cannot deadlock on partial
//     acquisitions within a table, and a pending whole-table request
//     blocks new keyed entrants so DDL/generation switches cannot
//     starve.
//
// Scopes are declared from static analysis (the statement's footprint —
// footprint.go — and recorded write sets), so an operation can occasionally
// discover mid-flight that it must touch a row outside its scope — a
// uniqueness-revival collision landing in a sibling partition, a row
// whose partition column was rewritten after the original record. Such
// operations verify every row against their scope *before mutating* and
// return errScopeConflict; the entry point releases the keyed scope and
// retries once under the whole-table scope. Completed per-row rollbacks
// are idempotent, so the retry re-converges.
//
// Lock ordering is unchanged from PR 1: db.mu → table locks (lockAll in
// name order), and code holding a table scope never acquires db.mu.
// tableMeta.mu survives as a leaf *latch* for the table's in-memory
// bookkeeping (row-ID allocator, per-partition version index); it is
// held only for map/counter touches, never across a statement.

import (
	"errors"
	"sort"
	"sync"
	"time"

	"warp/internal/obs"
	"warp/internal/sqldb"
)

// errScopeConflict reports that an operation holding a keyed partition
// scope must touch a row outside that scope. Entry points catch it and
// retry under the whole-table scope.
var errScopeConflict = errors.New("ttdb: operation escaped its partition lock scope")

// lockScope names the slice of one table an operation locks: a sorted,
// distinct set of lock-column keys, a set of coalesced key ranges, or
// the whole table. Ranges are the compact form of IN-heavy scopes
// (docs/repair.md): a wide key set collapses to one covering interval in
// Key()-string order, so acquisition and conflict checks stay O(ranges)
// instead of O(keys). A range over-claims keys that fall between the
// listed ones; over-claiming a lock scope is always safe — it only
// serializes more.
type lockScope struct {
	whole  bool
	keys   []string
	ranges []keyRange
}

// keyRange is one inclusive interval of lock-column keys, bounded in
// Key()-string order (the same order keyScope sorts by, so covers and
// conflict checks agree with the keyed form).
type keyRange struct {
	lo, hi string
}

// contains reports whether a key falls inside the range.
func (r keyRange) contains(key string) bool { return r.lo <= key && key <= r.hi }

// overlaps reports whether two ranges share any key.
func (r keyRange) overlaps(o keyRange) bool { return r.lo <= o.hi && o.lo <= r.hi }

// wholeScope returns the scope covering the entire table.
func wholeScope() lockScope { return lockScope{whole: true} }

// keyScope returns a keyed scope over the given lock-column keys,
// sorted and de-duplicated. An empty key set is legal (the operation
// provably touches no rows) and conflicts with nothing but a
// whole-table scope.
func keyScope(keys []string) lockScope {
	sort.Strings(keys)
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || keys[i-1] != k {
			out = append(out, k)
		}
	}
	return lockScope{keys: out}
}

// rangeScope returns a scope covering one inclusive key interval.
func rangeScope(lo, hi string) lockScope {
	return lockScope{ranges: []keyRange{{lo: lo, hi: hi}}}
}

// covers reports whether a lock-column key falls inside the scope.
func (s lockScope) covers(key string) bool {
	if s.whole {
		return true
	}
	for _, r := range s.ranges {
		if r.contains(key) {
			return true
		}
	}
	i := sort.SearchStrings(s.keys, key)
	return i < len(s.keys) && s.keys[i] == key
}

// merge unions two scopes.
func (s lockScope) merge(o lockScope) lockScope {
	if s.whole || o.whole {
		return wholeScope()
	}
	out := keyScope(append(append([]string{}, s.keys...), o.keys...))
	out.ranges = append(append([]keyRange{}, s.ranges...), o.ranges...)
	return out
}

// partLocks is one table's lock manager. Keyed scopes hold their keys
// exclusively, range scopes hold their intervals exclusively, and the
// whole-table scope excludes every keyed and ranged holder.
type partLocks struct {
	mu        sync.Mutex
	cond      *sync.Cond
	whole     bool
	wholeWait int
	// holders counts the keyed and ranged scopes currently held — including
	// empty ones, which hold no key yet must still keep a whole-table
	// scope (DDL growing the column list) out while their statement runs.
	holders int
	held    map[string]bool
	// heldRanges are the coalesced intervals currently held. Two held
	// ranges never overlap (acquisition excludes that), so releases
	// remove by value unambiguously. The slice stays short — one entry
	// per concurrently running coalesced operation.
	heldRanges []keyRange
}

func newPartLocks() *partLocks {
	l := &partLocks{held: make(map[string]bool)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// lock blocks until the scope can be held. Keyed and ranged scopes are
// acquired all-or-nothing; a waiting whole-table scope bars new keyed
// entrants so it cannot starve.
func (l *partLocks) lock(s lockScope) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s.whole {
		l.wholeWait++
		if l.whole || l.holders > 0 {
			var start time.Time
			if obs.Enabled() {
				start = time.Now()
			}
			for l.whole || l.holders > 0 {
				l.cond.Wait()
			}
			if !start.IsZero() {
				lockWaitHist.Observe(time.Since(start))
			}
		}
		l.wholeWait--
		l.whole = true
		wholeTableLocks.Add(1)
		return
	}
	if !l.available(s) {
		var start time.Time
		if obs.Enabled() {
			start = time.Now()
		}
		for !l.available(s) {
			l.cond.Wait()
		}
		if !start.IsZero() {
			lockWaitHist.Observe(time.Since(start))
		}
	}
	l.holders++
	for _, k := range s.keys {
		l.held[k] = true
	}
	l.heldRanges = append(l.heldRanges, s.ranges...)
	partitionsLocked.Add(int64(len(s.keys)))
	rangeLocksHeld.Add(int64(len(s.ranges)))
}

// available reports whether a keyed or ranged scope could be taken right
// now. Called with l.mu held.
func (l *partLocks) available(s lockScope) bool {
	if l.whole || l.wholeWait > 0 {
		return false
	}
	for _, k := range s.keys {
		if l.held[k] {
			return false
		}
		for _, hr := range l.heldRanges {
			if hr.contains(k) {
				return false
			}
		}
	}
	for _, r := range s.ranges {
		for _, hr := range l.heldRanges {
			if r.overlaps(hr) {
				return false
			}
		}
		// A requested range conflicts with every held key inside it. The
		// held map is bounded by the keys of concurrently running keyed
		// operations, so this scan is small even when the range is wide.
		for k := range l.held {
			if r.contains(k) {
				return false
			}
		}
	}
	return true
}

// unlock releases a scope taken by lock.
func (l *partLocks) unlock(s lockScope) {
	l.mu.Lock()
	if s.whole {
		l.whole = false
		wholeTableLocks.Add(-1)
	} else {
		l.holders--
		for _, k := range s.keys {
			delete(l.held, k)
		}
		for _, r := range s.ranges {
			for i, hr := range l.heldRanges {
				if hr == r {
					l.heldRanges = append(l.heldRanges[:i], l.heldRanges[i+1:]...)
					break
				}
			}
		}
		partitionsLocked.Add(-int64(len(s.keys)))
		rangeLocksHeld.Add(-int64(len(s.ranges)))
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// lockScopeFor acquires the scope on a table and returns its meta with
// a release function.
func (db *DB) lockScope(table string, sc lockScope) (*tableMeta, func(), error) {
	m, err := db.meta(table)
	if err != nil {
		return nil, nil, err
	}
	m.locks.lock(sc)
	return m, func() { m.locks.unlock(sc) }, nil
}

// checkScope verifies one lock-column key against the scope, returning
// errScopeConflict when the operation would escape it.
func (s lockScope) check(key string) error {
	if !s.covers(key) {
		return errScopeConflict
	}
	return nil
}

// coalesceThreshold is the keyed-scope size above which maybeCoalesce
// considers collapsing the key set into one covering range. Below it,
// per-key acquisition is already O(small); above it, wide IN scopes —
// typically repair items re-executing a recorded multi-row write — pay
// a per-key cost on every acquisition and conflict check.
const coalesceThreshold = 16

// maybeCoalesce collapses a wide all-text keyed scope into one covering
// key-range when the table is dense over that interval, so IN-heavy
// repair scopes stop paying per-key acquisition without degenerating to
// the whole-table scope. The density probe is an unlocked range scan of
// the raw engine riding the ordered index (docs/performance.md); like
// scopeForRows' pre-scan it may go stale before the scope is acquired,
// which is safe — a range only ever over-claims, and over-claiming a
// lock scope serializes more, never less. Coalescing is refused when
// the interval holds more than twice the requested keys: locking a
// sparse range would block unrelated live writers for no win.
func (db *DB) maybeCoalesce(m *tableMeta, sc lockScope) lockScope {
	if sc.whole || len(sc.ranges) > 0 || len(sc.keys) < coalesceThreshold {
		return sc
	}
	if m == nil || m.lockCol == "" {
		return sc
	}
	// Only text keys coalesce: a text Key() ("t"+value) sorts exactly as
	// the value does, so the covering interval in Key() space is the same
	// interval the ordered index enumerates. Integer Key() forms sort
	// lexicographically, not numerically, and mixed-type sets have no
	// meaningful single interval.
	for _, k := range sc.keys {
		if len(k) == 0 || k[0] != 't' {
			return sc
		}
	}
	lo, hi := sc.keys[0], sc.keys[len(sc.keys)-1]
	res, err := db.raw.ExecCached(m.lockRange, []sqldb.Value{sqldb.Text(lo[1:]), sqldb.Text(hi[1:])})
	if err != nil {
		return sc
	}
	distinct := make(map[string]struct{}, len(sc.keys))
	for _, row := range res.Rows {
		distinct[row[0].Key()] = struct{}{}
	}
	if len(distinct) > 2*len(sc.keys) {
		return sc
	}
	scopeCoalesced.Inc()
	return rangeScope(lo, hi)
}
