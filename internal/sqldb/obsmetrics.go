package sqldb

import (
	"sync/atomic"
	"time"

	"warp/internal/obs"
)

// Exec latency instrumentation. The engine classifies every execution
// by plan shape — statement type plus, for SELECTs, the access path the
// scan actually took — and records its latency into one fixed-bucket
// histogram per shape. The shape is a return value of the one locked
// executor (always on, free); the clock reads and histogram writes
// happen in its one caller (DB.exec) and only when obs.Enabled() or a
// slow-query threshold arms them, so the uninstrumented path pays a
// single atomic load per exec.

// ExecShape classifies one statement execution for latency accounting.
type ExecShape uint8

const (
	// ShapeOther covers DDL, no-table SELECTs, and statements that fail
	// before reaching an executor.
	ShapeOther ExecShape = iota
	// ShapeSelectEq is a SELECT served by a single hash-index probe.
	ShapeSelectEq
	// ShapeSelectIn is a SELECT served by a bounded set of index probes.
	ShapeSelectIn
	// ShapeSelectRange is a SELECT served by an ordered index walk.
	ShapeSelectRange
	// ShapeSelectFull is a SELECT that visited every live row.
	ShapeSelectFull
	// ShapeInsert, ShapeUpdate, ShapeDelete are the write statements.
	ShapeInsert
	ShapeUpdate
	ShapeDelete

	numExecShapes
)

// String returns the shape's metric label.
func (s ExecShape) String() string {
	switch s {
	case ShapeSelectEq:
		return "select_eq"
	case ShapeSelectIn:
		return "select_in"
	case ShapeSelectRange:
		return "select_range"
	case ShapeSelectFull:
		return "select_full"
	case ShapeInsert:
		return "insert"
	case ShapeUpdate:
		return "update"
	case ShapeDelete:
		return "delete"
	default:
		return "other"
	}
}

// execHists holds one registered histogram per shape, indexed by the
// shape value so the hot path observes without a map lookup or
// allocation.
var execHists = func() [numExecShapes]*obs.Histogram {
	var a [numExecShapes]*obs.Histogram
	for s := ExecShape(0); s < numExecShapes; s++ {
		a[s] = obs.NewHistogram(`warp_sqldb_exec_seconds{shape="` + s.String() + `"}`)
	}
	return a
}()

// Engine event counters (docs/observability.md), process-wide like every
// registry series: compiled-plan reuse (planFor), the access path of
// every row scan (matchSlots), statement-cache lookups (StmtCache.Get,
// every cache), and index selectivity — the postings index scans, probes
// and ordered walks alike, handed to the statement's predicate
// (filterSlots), and how many of those matched. A plan-miss share that
// stays above ~0 on a steady workload means a caller is rebuilding
// statements per call; a high full-scan share means the workload's
// predicates are not riding the indexes.
var (
	planHits        = obs.NewCounter("warp_sqldb_plan_hits_total")
	planMisses      = obs.NewCounter("warp_sqldb_plan_misses_total")
	indexScans      = obs.NewCounter(`warp_sqldb_scans_total{path="index"}`)
	fullScans       = obs.NewCounter(`warp_sqldb_scans_total{path="full"}`)
	stmtCacheHits   = obs.NewCounter("warp_sqldb_stmt_cache_hits_total")
	stmtCacheMisses = obs.NewCounter("warp_sqldb_stmt_cache_misses_total")
	postingsVisited = obs.NewCounter("warp_sqldb_index_postings_visited_total")
	postingsMatched = obs.NewCounter("warp_sqldb_index_postings_matched_total")
)

// ExecStats is the engine's execution counters read out of one registry
// snapshot (ExecStatsOf).
type ExecStats struct {
	// StmtCacheHits / StmtCacheMisses count text→statement cache lookups.
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

// ExecStatsOf reads the engine's execution counters from s.
func ExecStatsOf(s obs.Snapshot) ExecStats {
	return ExecStats{
		StmtCacheHits:   s.Counter(stmtCacheHits.Name()),
		StmtCacheMisses: s.Counter(stmtCacheMisses.Name()),
		PlanHits:        s.Counter(planHits.Name()),
		PlanMisses:      s.Counter(planMisses.Name()),
		IndexScans:      s.Counter(indexScans.Name()),
		FullScans:       s.Counter(fullScans.Name()),
	}
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

// selectShape maps a SELECT's executed access path to its shape.
func selectShape(sp *scanPlan, usedIndex bool) ExecShape {
	if !usedIndex || sp == nil {
		return ShapeSelectFull
	}
	switch sp.kind {
	case scanEq:
		return ShapeSelectEq
	case scanIn:
		return ShapeSelectIn
	case scanRange:
		return ShapeSelectRange
	}
	return ShapeSelectFull
}

// SlowQueryFunc receives one over-threshold statement: its canonical
// SQL, executed plan shape, and wall-clock duration (inclusive of the
// engine-mutex wait).
type SlowQueryFunc func(stmt string, shape ExecShape, d time.Duration)

var (
	slowQueryNs atomic.Int64
	slowQueryFn atomic.Pointer[SlowQueryFunc]
)

// SetSlowQueryLog arms slow-statement logging engine-wide: every
// execution slower than threshold is reported to fn. A zero threshold
// (or nil fn) disarms it.
func SetSlowQueryLog(threshold time.Duration, fn SlowQueryFunc) {
	if threshold <= 0 || fn == nil {
		slowQueryNs.Store(0)
		slowQueryFn.Store(nil)
		return
	}
	slowQueryFn.Store(&fn)
	slowQueryNs.Store(int64(threshold))
}

// timedExec reports whether DB.exec should read the clock.
func timedExec() bool {
	return obs.Enabled() || slowQueryNs.Load() > 0
}

// observeExec records one timed execution: histogram by shape, plus the
// slow-query hook, which reports the handle's precomputed canonical SQL.
func observeExec(start time.Time, shape ExecShape, cs *CachedStmt) {
	d := time.Since(start)
	execHists[shape].Observe(d)
	ns := slowQueryNs.Load()
	if ns <= 0 || int64(d) < ns {
		return
	}
	fp := slowQueryFn.Load()
	if fp == nil {
		return
	}
	(*fp)(cs.canonical, shape, d)
}
