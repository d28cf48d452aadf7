package ttdb

// One lock per table (docs/repair.md).
//
// Each table has one reader/writer lock, held for the full span of an
// operation: reads take it shared; writes, two-phase re-executions,
// rollbacks and RepairValueBefore's probe take it exclusive. DDL,
// generation switches and GC take every table's lock exclusive, in name
// order (lockAll). The engine runs one statement at a time (sqldb.DB.mu),
// so finer locks would buy no concurrency; partitions bound only a
// repair's damage — its dirt and the admission gate's claims
// (footprint.go).
//
// Exclusive writes make each table's Observer record order its execution
// order, which WAL replay relies on: it re-executes the records serially
// in log order.
//
// A waiting exclusive acquisition bars new shared ones (sync.RWMutex),
// so DDL and generation switches cannot starve behind readers. For the
// same reason a recursive shared acquisition deadlocks once a writer
// queues: no path takes a table's lock while it holds one on that table,
// and nothing but lockAll holds two tables.
// The order is db.mu → table locks, and code holding a table lock never
// acquires db.mu. tableMeta.mu is a leaf latch for the table's row-ID
// allocator, held only for counter touches.

import (
	"sync"
	"time"

	"warp/internal/obs"
)

// tableLock is one table's lock.
type tableLock struct{ rw sync.RWMutex }

// lockWaitHist observes how long blocked acquisitions wait, shared and
// exclusive alike (docs/observability.md). Uncontended acquisitions are
// not observed: the histogram measures contention, not traffic.
var lockWaitHist = obs.NewHistogram("warp_ttdb_lock_wait_seconds")

// lock takes the table exclusively, or shared for a read. Only a
// contended acquisition reads the clock, for lockWaitHist.
func (l *tableLock) lock(exclusive bool) {
	if exclusive && l.rw.TryLock() || !exclusive && l.rw.TryRLock() {
		return
	}
	var start time.Time
	if obs.Enabled() {
		start = time.Now()
	}
	if exclusive {
		l.rw.Lock()
	} else {
		l.rw.RLock()
	}
	if !start.IsZero() {
		lockWaitHist.Observe(time.Since(start))
	}
}

// unlock releases a lock taken with the same exclusive flag.
func (l *tableLock) unlock(exclusive bool) {
	if exclusive {
		l.rw.Unlock()
	} else {
		l.rw.RUnlock()
	}
}

// lockTable takes a table's lock and returns its meta with the release.
func (db *DB) lockTable(table string, exclusive bool) (*tableMeta, func(), error) {
	m, err := db.meta(table)
	if err != nil {
		return nil, nil, err
	}
	m.locks.lock(exclusive)
	return m, func() { m.locks.unlock(exclusive) }, nil
}
