// concurrent-repair demonstrates repair generations (§4.3): the wiki
// keeps serving users while a large repair runs, and at the end the
// repaired generation atomically becomes current.
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"warp/internal/attacks"
	"warp/internal/workload"
)

func main() {
	// A clickjacking workload whose repair re-executes nearly everything,
	// so there is a meaningful window to serve traffic in.
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
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
