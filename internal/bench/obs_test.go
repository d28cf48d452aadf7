package bench

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warp/internal/app"
	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// TestRepairMetricsLive is the observability acceptance test: during a
// BenchmarkPartitionRepair-style run (hot partitioned table, per-client
// visit-replay chains, parallel workers), Warp.Metrics() must report
// the repair in flight — active gauge up, scheduler progress gauges
// moving, phase trace accumulating — and after it finishes, a complete
// phase breakdown plus populated exec latency histograms. The
// concurrent Metrics() polling is also the -race stress for histogram,
// counter, and trace writes during parallel repair.
//
// Catching the repair live is a handshake, not a race: once the repair
// is under way every re-executed page handler blocks until the poller
// has seen the active gauge up and the replay phase open, so the
// observation cannot be missed however the two goroutines are scheduled.
func TestRepairMetricsLive(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	const (
		clients = 8
		pages   = 3
		workers = 4
	)
	// repairing arms the gate; seen is closed by the poller (or, so a
	// broken metrics surface fails the assertions instead of hanging the
	// test, by the timeout).
	var repairing atomic.Bool
	seen := make(chan struct{})
	page := postsHandler(0)
	gated := func(c *app.Ctx) *httpd.Response {
		if repairing.Load() {
			select {
			case <-seen:
			case <-time.After(10 * time.Second):
			}
		}
		return page(c)
	}
	w := core.New(core.Config{Seed: 99, RepairWorkers: workers})
	if err := w.DB.Annotate("posts", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.DB.Exec("CREATE TABLE posts (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	if err := w.Runtime.Register("login.php", app.Version{Entry: loginHandler(false)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Runtime.Register("page.php", app.Version{Entry: gated}); err != nil {
		t.Fatal(err)
	}
	w.Runtime.Mount("/login", "login.php")
	w.Runtime.Mount("/page", "page.php")
	id := 0
	for c := 0; c < clients; c++ {
		b := w.NewBrowser()
		if p := b.Open("/login"); p.DOM == nil {
			t.Fatalf("login failed for client %d", c)
		}
		for n := 0; n < pages; n++ {
			id++
			if p := b.Open(fmt.Sprintf("/page?owner=%s&id=%d&body=p%d", b.ClientID, id, n)); p.DOM == nil {
				t.Fatalf("page visit failed for client %d", c)
			}
		}
	}

	before := obs.Default.Snapshot()

	// Poll the metrics surface while the repair runs, releasing the gated
	// handlers once the repair has been seen live: active gauge up, and a
	// live trace past its frontier phase with a span still open — the
	// replay drain the blocked handlers are running in. One last poll
	// after the repair returns reads the final progress gauge.
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	var sawActive, sawReplayPhase bool
	var maxReplayed int64
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for done := false; !done; {
			select {
			case <-stop:
				done = true
			case <-time.After(200 * time.Microsecond):
			}
			m := w.Metrics()
			if m.Obs.Gauge("warp_core_repair_active") == 1 {
				sawActive = true
			}
			if g := m.Obs.Gauge("warp_core_repair_actions_replayed"); g > maxReplayed {
				maxReplayed = g
			}
			if m.Repair != nil && !m.Repair.Done && m.Repair.Open > 0 && m.Repair.Phase("frontier").Count > 0 {
				sawReplayPhase = true
			}
			if sawActive && sawReplayPhase && !done {
				select {
				case <-seen:
				default:
					close(seen)
				}
			}
		}
	}()

	repairing.Store(true)
	rep, err := w.RetroPatch("login.php", app.Version{Entry: loginHandler(true), Note: "session hardening"})
	close(stop)
	pollers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := clients * (pages + 1); rep.PageVisitsReplayed != want {
		t.Fatalf("visits replayed = %d, want %d", rep.PageVisitsReplayed, want)
	}
	if !sawActive {
		t.Error("never observed warp_core_repair_active = 1 during the repair")
	}
	if !sawReplayPhase {
		t.Error("never observed a live (unfinished) repair trace in its replay phase")
	}

	m := w.Metrics()
	if m.Repair == nil {
		t.Fatal("Metrics().Repair is nil after an instrumented repair")
	}
	if !m.Repair.Done || !strings.HasPrefix(m.Repair.Name, "repair:") {
		t.Fatalf("final repair trace: done=%v name=%q", m.Repair.Done, m.Repair.Name)
	}
	for _, phase := range []string{"frontier", "replay", "commit"} {
		if m.Repair.Phase(phase).Count == 0 {
			t.Errorf("repair trace has no %q spans: %+v", phase, m.Repair.Phases)
		}
	}
	if m.Obs.Gauge("warp_core_repair_active") != 0 {
		t.Error("warp_core_repair_active still 1 after repair")
	}
	if m.Obs.Gauge("warp_core_repair_actions_remaining") != 0 {
		t.Errorf("actions remaining = %d after repair, want 0",
			m.Obs.Gauge("warp_core_repair_actions_remaining"))
	}
	replayed := m.Obs.Gauge("warp_core_repair_actions_replayed")
	if replayed < int64(clients*(pages+1)) {
		t.Errorf("actions replayed = %d, want ≥ %d (one per replayed visit)", replayed, clients*(pages+1))
	}
	if maxReplayed == 0 || maxReplayed > replayed {
		t.Errorf("live progress gauge peaked at %d, final %d", maxReplayed, replayed)
	}

	// The window over the whole test must show the repair counted and
	// the per-layer latency histograms populated: exec latencies from
	// the replayed queries, per-item repair latencies, lock waits only
	// if there was contention (not asserted).
	win := m.Obs.Sub(before)
	if got := win.Counter("warp_core_repairs_total"); got != 1 {
		t.Errorf("repairs in window = %d, want 1", got)
	}
	var execObs uint64
	for _, h := range win.Histograms {
		if strings.HasPrefix(h.Name, "warp_sqldb_exec_seconds") {
			execObs += h.Hist.Count
		}
	}
	if execObs == 0 {
		t.Error("no exec latency observations recorded during the repair window")
	}
	// The engine's execution counters are that same snapshot's series.
	if m.Exec != sqldb.ExecStatsOf(m.Obs) {
		t.Errorf("Metrics().Exec = %+v, not the snapshot's %+v", m.Exec, sqldb.ExecStatsOf(m.Obs))
	}
	if e := m.Exec.Sub(sqldb.ExecStatsOf(before)); e.PlanHits == 0 || e.IndexScans+e.FullScans == 0 {
		t.Errorf("exec counters over the repair window: %+v", e)
	}
	if hs, ok := win.Histogram("warp_core_repair_item_seconds"); !ok || hs.Count == 0 {
		t.Error("no repair item latency observations recorded")
	} else if hs.Quantile(0.5) <= 0 || hs.Quantile(0.99) < hs.Quantile(0.5) {
		t.Errorf("repair item quantiles inconsistent: p50=%v p99=%v", hs.Quantile(0.5), hs.Quantile(0.99))
	}
}
