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
// tableMeta.mu survives as a leaf *latch* for the table's row-ID
// allocator; it is held only for counter touches, never across a
// statement.

import (
	"errors"
	"sort"
	"sync"
	"time"

	"warp/internal/obs"
)

// errScopeConflict reports that an operation holding a keyed partition
// scope must touch a row outside that scope. Entry points catch it and
// retry under the whole-table scope.
var errScopeConflict = errors.New("ttdb: operation escaped its partition lock scope")

// lockScope names the slice of one table an operation locks: a sorted,
// distinct set of lock-column keys, or the whole table.
type lockScope struct {
	whole bool
	keys  []string
}

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

// covers reports whether a lock-column key falls inside the scope.
func (s lockScope) covers(key string) bool {
	if s.whole {
		return true
	}
	i := sort.SearchStrings(s.keys, key)
	return i < len(s.keys) && s.keys[i] == key
}

// merge unions two scopes.
func (s lockScope) merge(o lockScope) lockScope {
	if s.whole || o.whole {
		return wholeScope()
	}
	return keyScope(append(append([]string{}, s.keys...), o.keys...))
}

// partLocks is one table's lock manager. Keyed scopes hold their keys
// exclusively, and the whole-table scope excludes every keyed holder.
type partLocks struct {
	mu        sync.Mutex
	cond      *sync.Cond
	whole     bool
	wholeWait int
	// holders counts the keyed scopes currently held — including
	// empty ones, which hold no key yet must still keep a whole-table
	// scope (DDL growing the column list) out while their statement runs.
	holders int
	held    map[string]bool
}

func newPartLocks() *partLocks {
	l := &partLocks{held: make(map[string]bool)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// lock blocks until the scope can be held. Keyed scopes are acquired
// all-or-nothing; a waiting whole-table scope bars new keyed
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
	partitionsLocked.Add(int64(len(s.keys)))
}

// available reports whether a keyed scope could be taken right now.
// Called with l.mu held.
func (l *partLocks) available(s lockScope) bool {
	if l.whole || l.wholeWait > 0 {
		return false
	}
	for _, k := range s.keys {
		if l.held[k] {
			return false
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
		partitionsLocked.Add(-int64(len(s.keys)))
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
