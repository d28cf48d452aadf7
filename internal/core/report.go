package core

import (
	"fmt"
	"time"

	"warp/internal/browser"
)

// Timing is the repair wall-time breakdown reported in the paper's
// Tables 7 and 8: initialization (finding affected actions), history-graph
// loading, browser re-execution ("Firefox"), standalone database query
// re-execution, application re-execution, and controller overhead.
type Timing struct {
	Init    time.Duration
	Graph   time.Duration
	Browser time.Duration
	DB      time.Duration
	App     time.Duration
	Ctrl    time.Duration
	Total   time.Duration
}

// Report summarizes one repair: what was re-executed out of what existed,
// what conflicts were queued, and where the time went.
type Report struct {
	Generation int64

	PageVisitsReplayed int
	AppRunsReexecuted  int // distinct recorded runs re-executed
	QueriesReexecuted  int
	RunsCancelled      int
	// FreshRuns counts executions of requests the original timeline never
	// served (a patched page navigating somewhere new); they are not among
	// the TotalAppRuns recorded runs.
	FreshRuns int

	TotalPageVisits int
	TotalAppRuns    int
	TotalQueries    int

	Conflicts        []browser.Conflict
	GraphNodesLoaded int
	Aborted          bool

	Timing Timing
}

// UsersWithConflicts counts distinct clients with at least one queued
// conflict, the metric of Tables 3 and 4.
func (r *Report) UsersWithConflicts() int {
	seen := map[string]bool{}
	for _, c := range r.Conflicts {
		seen[c.Client] = true
	}
	return len(seen)
}

// String renders the report in the paper's Table 7 row style.
func (r *Report) String() string {
	return fmt.Sprintf(
		"gen %d: visits %d/%d, runs %d/%d (+%d cancelled, +%d fresh), queries %d/%d, conflicts %d (users %d), total %v (init %v graph %v browser %v db %v app %v ctrl %v)",
		r.Generation,
		r.PageVisitsReplayed, r.TotalPageVisits,
		r.AppRunsReexecuted, r.TotalAppRuns, r.RunsCancelled, r.FreshRuns,
		r.QueriesReexecuted, r.TotalQueries,
		len(r.Conflicts), r.UsersWithConflicts(),
		r.Timing.Total.Round(time.Microsecond),
		r.Timing.Init.Round(time.Microsecond),
		r.Timing.Graph.Round(time.Microsecond),
		r.Timing.Browser.Round(time.Microsecond),
		r.Timing.DB.Round(time.Microsecond),
		r.Timing.App.Round(time.Microsecond),
		r.Timing.Ctrl.Round(time.Microsecond),
	)
}
