package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"warp/internal/obs"
)

// Deployment-level instrumentation (docs/observability.md): request
// latency on the normal-operation path, live repair progress for the
// scheduler, and the slow-repair-action hook paired with sqldb's
// slow-query hook. Counters and gauges are unconditional; clock reads
// are gated on obs.Enabled() or an armed slow threshold.
var (
	// requestHist observes HandleRequest wall time — route, run,
	// history-graph record; requestsTotal counts every request served.
	requestHist   = obs.NewHistogram("warp_core_request_seconds")
	requestsTotal = obs.NewCounter("warp_core_requests_total")
	// visitLogsTotal counts browser visit-log uploads accepted.
	visitLogsTotal = obs.NewCounter("warp_core_visit_logs_total")

	// repairsTotal counts repair sessions started; repairActive is 1
	// while one runs.
	repairsTotal = obs.NewCounter("warp_core_repairs_total")
	repairActive = obs.NewGauge("warp_core_repair_active")
	// actionsReplayed / actionsRemaining are the live progress gauges of
	// the repair scheduler: items processed so far and items still
	// queued (pending + blocked), reset at each session start.
	actionsReplayed  = obs.NewGauge("warp_core_repair_actions_replayed")
	actionsRemaining = obs.NewGauge("warp_core_repair_actions_remaining")
	// repairItemHist observes per-work-item processing time (query
	// check, run re-execution, or visit replay).
	repairItemHist = obs.NewHistogram("warp_core_repair_item_seconds")

	// Online-repair seam metrics (admission.go, replay.go).
	// liveWritesQueued counts live writes that hit the admission gate
	// with a footprint conflicting an in-flight repair item;
	// liveWritesWaiting is how many are waiting right now.
	liveWritesQueued  = obs.NewCounter("warp_core_live_writes_queued_total")
	liveWritesWaiting = obs.NewGauge("warp_core_live_writes_waiting")
	// liveWritesMerged counts live writes the replay loop reconciled with
	// a concurrent repair by three-way merge; mergeConflicts counts
	// merges that fell back to last-writer-wins.
	liveWritesMerged = obs.NewCounter("warp_core_live_writes_merged_total")
	mergeConflicts   = obs.NewCounter("warp_core_live_merge_conflicts_total")
)

// SlowRepairFunc receives one over-threshold repair work item: a short
// description and its processing duration.
type SlowRepairFunc func(item string, d time.Duration)

var (
	slowRepairNs atomic.Int64
	slowRepairFn atomic.Pointer[SlowRepairFunc]
)

// SetSlowRepairLog arms slow repair-action logging: every work item
// slower than threshold is reported to fn. A zero threshold (or nil fn)
// disarms it.
func SetSlowRepairLog(threshold time.Duration, fn SlowRepairFunc) {
	if threshold <= 0 || fn == nil {
		slowRepairNs.Store(0)
		slowRepairFn.Store(nil)
		return
	}
	slowRepairFn.Store(&fn)
	slowRepairNs.Store(int64(threshold))
}

// describe renders a work item for the slow-repair log. Only called on
// the slow path, so the allocation is off the repair fast path.
func (it *workItem) describe() string {
	switch it.kind {
	case workQueryCheck:
		return fmt.Sprintf("query action %d (t=%d)", it.action, it.time)
	case workRunExec:
		return fmt.Sprintf("run action %d (t=%d)", it.action, it.time)
	case workVisitReplay:
		return fmt.Sprintf("visit replay %s/%d (t=%d)", it.client, it.visit, it.time)
	}
	return fmt.Sprintf("work item kind=%d (t=%d)", it.kind, it.time)
}

// processTimed wraps session.process with the per-item progress and
// latency instrumentation.
func (rs *session) processTimed(it *workItem) error {
	if !obs.Enabled() && slowRepairNs.Load() <= 0 {
		err := rs.process(it)
		actionsReplayed.Add(1)
		return err
	}
	start := time.Now()
	err := rs.process(it)
	d := time.Since(start)
	repairItemHist.Observe(d)
	actionsReplayed.Add(1)
	if ns := slowRepairNs.Load(); ns > 0 && int64(d) >= ns {
		if fp := slowRepairFn.Load(); fp != nil {
			(*fp)(it.describe(), d)
		}
	}
	return err
}
