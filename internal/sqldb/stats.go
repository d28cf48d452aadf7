package sqldb

// Execution introspection: how often compiled plans are reused and how
// often scans are narrowed by an index. Every execution goes through a
// prepared handle (DB.exec), so the plan counters see all of them. WARP
// surfaces these per deployment (core.Warp.ExecStats): a plan-miss share
// that stays above ~0 on a steady workload means a caller is rebuilding
// statements per call, and a high full-scan share means the workload's
// predicates are not riding the indexes.

// execCounters is the DB's internal accumulator (guarded by DB.mu).
type execCounters struct {
	planHits   uint64
	planMisses uint64
	indexScans uint64
	fullScans  uint64
}

// ExecStats is a snapshot of the engine's execution counters.
type ExecStats struct {
	// StmtCacheHits / StmtCacheMisses count text→statement cache lookups
	// on the Exec entry point.
	StmtCacheHits   uint64
	StmtCacheMisses uint64
	// PlanHits / PlanMisses count compiled-plan reuses vs (re)compiles
	// across all SELECT/INSERT/UPDATE/DELETE executions.
	PlanHits   uint64
	PlanMisses uint64
	// IndexScans / FullScans count row scans narrowed by an index probe
	// or walk vs scans that visited every live row.
	IndexScans uint64
	FullScans  uint64
}

// Sub returns the counter deltas s − prev, for measurements over a
// window bracketed by two snapshots.
func (s ExecStats) Sub(prev ExecStats) ExecStats {
	return ExecStats{
		StmtCacheHits:   s.StmtCacheHits - prev.StmtCacheHits,
		StmtCacheMisses: s.StmtCacheMisses - prev.StmtCacheMisses,
		PlanHits:        s.PlanHits - prev.PlanHits,
		PlanMisses:      s.PlanMisses - prev.PlanMisses,
		IndexScans:      s.IndexScans - prev.IndexScans,
		FullScans:       s.FullScans - prev.FullScans,
	}
}

// ExecStats returns a snapshot of the execution counters.
func (db *DB) ExecStats() ExecStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	h, m := db.stmts.Stats()
	return ExecStats{
		StmtCacheHits:   h,
		StmtCacheMisses: m,
		PlanHits:        db.counters.planHits,
		PlanMisses:      db.counters.planMisses,
		IndexScans:      db.counters.indexScans,
		FullScans:       db.counters.fullScans,
	}
}

// noteScan records one scan's access path. Caller holds db.mu.
func (db *DB) noteScan(usedIndex bool) {
	if usedIndex {
		db.counters.indexScans++
	} else {
		db.counters.fullScans++
	}
}
