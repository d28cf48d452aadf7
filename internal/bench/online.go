package bench

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/obs"
)

// OnlineRepair measures live-request latency *during* a repair — the
// headline number of online repair (docs/repair.md): with
// exclusive=false the deployment keeps serving while the repair drains
// (partition-scoped coexistence, admission gate), suspending only for
// the final generation-switch commit window; with exclusive=true the
// deployment is core's stop-the-world baseline and every mid-repair
// request stalls for the whole repair.
//
// The workload is the fixture's hot `posts` table and patchLogin
// cascading into a per-client chain of page-visit replays. While the
// repair runs, one
// live client keeps issuing steadily paced read+write requests against
// its own partition (disjoint from every repaired one); the result
// reports that client's p99 and worst-case latency mid-repair next to
// the same deployment's idle p99.
func OnlineRepair(clients, pages int, appLatency time.Duration, exclusive bool) (*OnlineRepairResult, error) {
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(wasEnabled)

	w := newOnlineWarp(core.Config{Seed: 99}, exclusive)
	if err := install(w, pageHandler(appLatency)); err != nil {
		return nil, err
	}
	if _, err := seedClients(w, clients, pages); err != nil {
		return nil, err
	}

	// The live client: extensionless steady traffic against its own
	// partition, issued directly through the server manager.
	var liveID atomic.Int64
	liveID.Store(1_000_000)
	fire := func() (time.Duration, error) {
		n := liveID.Add(1)
		req := httpd.NewRequest("GET", fmt.Sprintf("/page?owner=live&id=%d&body=live%d", n, n))
		start := time.Now()
		resp := w.HandleRequest(req)
		d := time.Since(start)
		if resp.Status != 200 {
			return d, fmt.Errorf("bench: live request failed with status %d", resp.Status)
		}
		return d, nil
	}

	// Idle baseline: the same request stream with no repair running.
	idle := make([]time.Duration, 0, 200)
	for i := 0; i < 200; i++ {
		d, err := fire()
		if err != nil {
			return nil, err
		}
		idle = append(idle, d)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	var live []time.Duration
	var liveErr error
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			d, err := fire()
			live = append(live, d)
			if err != nil {
				liveErr = err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	start := time.Now()
	rep, err := patchLogin(w)
	repairTime := time.Since(start)
	close(stop)
	<-done
	if err != nil {
		return nil, err
	}
	if liveErr != nil {
		return nil, liveErr
	}

	out := &OnlineRepairResult{
		Exclusive:    exclusive,
		RepairTime:   repairTime,
		IdleP99:      quantileDuration(idle, 0.99),
		LiveP99:      quantileDuration(live, 0.99),
		MaxStall:     maxDuration(live),
		LiveRequests: len(live),
		Report:       rep,
	}
	out.Rows, err = postsRows(w)
	return out, err
}

// newOnlineWarp builds the deployment under test, or — for exclusive —
// the stop-the-world reference it is compared against.
func newOnlineWarp(cfg core.Config, exclusive bool) *core.Warp {
	if exclusive {
		return core.NewStopTheWorldBaseline(cfg)
	}
	return core.New(cfg)
}

// OnlineRepairResult is one measurement of live traffic riding through a
// repair, with the hot table's final contents for equivalence checks.
type OnlineRepairResult struct {
	Exclusive  bool
	RepairTime time.Duration
	// IdleP99 / LiveP99 are the live client's request p99 before and
	// during the repair; MaxStall is its single worst mid-repair
	// latency (under exclusive repair this approaches RepairTime — the
	// suspension-length stall online repair removes).
	IdleP99      time.Duration
	LiveP99      time.Duration
	MaxStall     time.Duration
	LiveRequests int
	Report       *core.Report
	Rows         []string
}

func quantileDuration(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration{}, ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func maxDuration(ds []time.Duration) time.Duration {
	var max time.Duration
	for _, d := range ds {
		if d > max {
			max = d
		}
	}
	return max
}
