// concurrent-repair demonstrates the three kinds of repair concurrency:
//
//   - repair generations (§4.3): the wiki keeps serving users while a
//     large repair runs, and at the end the repaired generation atomically
//     becomes current;
//   - the parallel repair scheduler: actions on disjoint time-travel
//     partitions repair on multiple workers (Config.RepairWorkers), while
//     conflicting actions keep the paper's time order;
//   - partition-granular concurrency on a single hot table: row-range
//     (lock-column) scopes in the database plus per-client page-visit
//     replay, compared against the serial engine (RepairWorkers: 1).
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"warp/internal/attacks"
	"warp/internal/bench"
	"warp/internal/workload"
)

func main() {
	// Part 1 — repair generations: a clickjacking workload whose repair
	// re-executes nearly everything, so there is a meaningful window to
	// serve traffic in.
	sc, _ := attacks.ByName("Clickjacking")
	res, err := workload.Run(workload.Config{Users: 40, Victims: 3, Seed: 21, Scenario: sc})
	must(err)
	sys := res.Env.W

	fmt.Printf("workload: %d page visits, %d runs, %d queries logged\n",
		res.PageVisits, res.AppRuns, res.Queries)
	fmt.Println("starting repair; serving traffic concurrently…")

	var served atomic.Int64
	stop := make(chan struct{})
	go func() {
		b := sys.NewBrowser()
		for {
			select {
			case <-stop:
				return
			default:
				p := b.Open("/index.php?title=Main")
				if p.DOM != nil {
					served.Add(1)
				}
			}
		}
	}()

	start := time.Now()
	report, err := sc.Repair(res.Env)
	must(err)
	close(stop)

	fmt.Printf("repair finished in %v while serving %d page visits concurrently\n",
		time.Since(start).Round(time.Millisecond), served.Load())
	fmt.Println("repair:", report.String())
	fmt.Println("the repaired generation is now current; normal operation never stopped")

	// Part 2 — the parallel scheduler: the same partition-disjoint repair
	// at 1, 2, and 4 workers. The work accounting is identical at every
	// worker count; only the wall time changes.
	fmt.Println()
	fmt.Println("parallel repair scheduler on a partition-disjoint workload (24 runs):")
	for _, workers := range []int{1, 2, 4} {
		r, err := bench.ParallelRepair(12, 2, workers, 500*time.Microsecond)
		must(err)
		fmt.Printf("  %d worker(s): repair %8v  (%d runs, %d queries re-executed)\n",
			workers, r.RepairTime.Round(time.Microsecond),
			r.Report.AppRunsReexecuted, r.Report.QueriesReexecuted)
	}

	// Part 3 — partition granularity on one hot table: every client's
	// visits hit the same `posts` table (disjoint partitions), and the
	// repair cascades into per-client visit-replay chains. One worker
	// runs them back to back; the partition-granular pipeline overlaps
	// them across workers.
	fmt.Println()
	fmt.Println("partition-granular repair on a single hot table (12 clients × 3 visits):")
	for _, workers := range []int{1, 4} {
		r, err := bench.PartitionRepair(12, 2, workers, time.Millisecond)
		must(err)
		fmt.Printf("  %d worker(s): repair %8v  (%d visits replayed)\n",
			workers, r.RepairTime.Round(time.Microsecond), r.Report.PageVisitsReplayed)
	}
	fmt.Println("same repaired state in every configuration; only the wall time changes")
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
