package bench

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"warp/internal/app"
	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/ttdb"
)

// OnlineRepair measures live-request latency *during* a repair — the
// headline number of online repair (docs/repair.md): with
// exclusive=false the deployment keeps serving while the repair drains
// (partition-scoped coexistence, admission gate, SLO throttle when
// slo > 0), suspending only for the final generation-switch commit
// window; with exclusive=true the deployment is core's stop-the-world
// baseline and every mid-repair request stalls for the whole repair.
//
// The workload is PartitionRepair's: a hot `posts` table partitioned by
// owner, a retroactive patch of the login page cascading into a
// per-client chain of page-visit replays. While the repair runs, one
// live client keeps issuing steadily paced read+write requests against
// its own partition (disjoint from every repaired one); the result
// reports that client's p99 and worst-case latency mid-repair next to
// the same deployment's idle p99.
func OnlineRepair(clients, pages, workers int, appLatency time.Duration, exclusive bool, slo time.Duration) (*OnlineRepairResult, error) {
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(wasEnabled)

	w := newOnlineWarp(core.Config{Seed: 99, RepairWorkers: workers, RepairSLO: slo}, exclusive)
	if err := w.DB.Annotate("posts", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		return nil, err
	}
	if _, _, err := w.DB.Exec("CREATE TABLE posts (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
		return nil, err
	}
	if err := w.Runtime.Register("login.php", app.Version{Entry: loginHandler(false)}); err != nil {
		return nil, err
	}
	if err := w.Runtime.Register("page.php", app.Version{Entry: postsHandler(appLatency)}); err != nil {
		return nil, err
	}
	w.Runtime.Mount("/login", "login.php")
	w.Runtime.Mount("/page", "page.php")

	id := 0
	for c := 0; c < clients; c++ {
		b := w.NewBrowser()
		if p := b.Open("/login"); p.DOM == nil {
			return nil, fmt.Errorf("bench: login failed for client %d", c)
		}
		for n := 0; n < pages; n++ {
			id++
			p := b.Open(fmt.Sprintf("/page?owner=%s&id=%d&body=<i>p%d</i>", b.ClientID, id, n))
			if p.DOM == nil {
				return nil, fmt.Errorf("bench: page visit failed for client %d", c)
			}
		}
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
	rep, err := w.RetroPatch("login.php", app.Version{Entry: loginHandler(true), Note: "session hardening"})
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
		Workers:      workers,
		Exclusive:    exclusive,
		RepairTime:   repairTime,
		IdleP99:      quantileDuration(idle, 0.99),
		LiveP99:      quantileDuration(live, 0.99),
		MaxStall:     maxDuration(live),
		LiveRequests: len(live),
		Report:       rep,
	}
	res, _, err := w.DB.Exec("SELECT owner, body FROM posts ORDER BY id")
	if err != nil {
		return nil, err
	}
	for _, r := range res.Rows {
		out.Rows = append(out.Rows, r[0].AsText()+"|"+r[1].AsText())
	}
	return out, nil
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
	Workers    int
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
