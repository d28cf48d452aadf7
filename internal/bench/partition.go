package bench

import (
	"time"

	"warp/internal/core"
)

// PartitionRepair measures the partition-granular repair pipeline on a
// single hot table: clients each log in and visit the fixture's page
// pages times, reading and writing their own partition of the one
// `posts` table, and the repair — patchLogin — cascades into a
// per-client chain of page-visit replays, each re-executing its run
// (with appLatency of simulated application work) against the hot table.
//
// Visit replays are exclusive only per client, so independent clients'
// replays — each mostly simulated application work — overlap across
// workers. Their DB re-executions on the one table still serialize on
// its lock, which the engine's one-statement-at-a-time mutex would
// impose anyway. workers=1 is the serial engine: the reference
// BenchmarkPartitionRepair and the speedup bar compare against.
//
// The repair outcome — re-execution accounting and final table contents
// — is identical at every worker count; only the wall time changes.
func PartitionRepair(clients, pages, workers int, appLatency time.Duration) (*PartitionRepairResult, error) {
	w := core.New(core.Config{Seed: 99, RepairWorkers: workers})
	if err := install(w, pageHandler(appLatency, false)); err != nil {
		return nil, err
	}
	if _, err := seedClients(w, clients, pages); err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := patchLogin(w)
	if err != nil {
		return nil, err
	}
	out := &PartitionRepairResult{Workers: workers, RepairTime: time.Since(start), Report: rep}
	out.Rows, err = postsRows(w)
	return out, err
}

// PartitionRepairResult is one measurement of the partition-granular
// pipeline, with the hot table's final contents for equivalence checks
// across worker counts.
type PartitionRepairResult struct {
	Workers    int
	RepairTime time.Duration
	Report     *core.Report
	Rows       []string
}
