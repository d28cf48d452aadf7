package ttdb

import "warp/internal/obs"

// Partition-lock instrumentation (docs/observability.md). The gauges
// and the escalation counter are unconditional single atomic adds,
// folded into sections that already hold the manager's mutex; the
// wait histogram reads the clock only when an acquisition actually
// blocks and obs is enabled, so the uncontended lock path stays
// clock-free.
var (
	// lockWaitHist observes how long blocked scope acquisitions wait,
	// whole-table and keyed alike. Uncontended acquisitions are not
	// observed — the histogram measures contention, not traffic.
	lockWaitHist = obs.NewHistogram("warp_ttdb_lock_wait_seconds")
	// partitionsLocked is the number of lock-column keys currently held
	// across all tables.
	partitionsLocked = obs.NewGauge("warp_ttdb_partitions_locked")
	// wholeTableLocks is the number of whole-table scopes currently
	// held.
	wholeTableLocks = obs.NewGauge("warp_ttdb_table_locks_held")
	// scopeEscalations counts keyed scopes that hit errScopeConflict
	// and retried under the whole-table scope.
	scopeEscalations = obs.NewCounter("warp_ttdb_scope_escalations_total")
)
