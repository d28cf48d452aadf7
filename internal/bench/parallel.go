package bench

import (
	"fmt"
	"time"

	"warp/internal/app"
	"warp/internal/core"
	"warp/internal/httpd"
)

// ParallelRepairResult is one measurement of the repair scheduler's
// scaling behavior.
type ParallelRepairResult struct {
	Workers    int
	RepairTime time.Duration
	Report     *core.Report
}

// ParallelRepair builds a partition-disjoint workload on the fixture —
// users independent owners, each with postsPerUser recorded runs of the
// page in their own partition — retro-patches the page to sanitize, and
// measures the repair wall time with the given worker count.
//
// Every run re-executes under the patch, runs touch only their owner's
// partition, and the final table state is identical at every worker
// count; only the wall time changes.
func ParallelRepair(users, postsPerUser, workers int, appLatency time.Duration) (*ParallelRepairResult, error) {
	w := core.New(core.Config{Seed: 321, RepairWorkers: workers})
	if err := install(w, pageHandler(appLatency, false)); err != nil {
		return nil, err
	}
	id := 0
	for u := 0; u < users; u++ {
		for n := 0; n < postsPerUser; n++ {
			id++
			resp := w.HandleRequest(httpd.NewRequest("GET",
				fmt.Sprintf("/page?owner=u%d&id=%d&body=<i>n%d</i>", u, id, n)))
			if resp.Status != 200 {
				return nil, fmt.Errorf("bench: seed request failed: %d", resp.Status)
			}
		}
	}

	start := time.Now()
	rep, err := w.RetroPatch("page.php", app.Version{Entry: pageHandler(appLatency, true), Note: "sanitize"})
	if err != nil {
		return nil, err
	}
	return &ParallelRepairResult{Workers: workers, RepairTime: time.Since(start), Report: rep}, nil
}
