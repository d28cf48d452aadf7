package bench

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"warp/internal/app"
	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/sqldb"
)

// onlineDeployment builds the OnlineRepair workload (the fixture with
// clients×pages seeded visits) and returns the deployment plus the first
// client's owner key, for tests that want to aim live traffic at a
// partition the repair will claim.
func onlineDeployment(t *testing.T, clients, pages int, appLatency time.Duration, cfg core.Config, exclusive bool) (*core.Warp, string) {
	t.Helper()
	w := newOnlineWarp(cfg, exclusive)
	if err := install(w, pageHandler(appLatency)); err != nil {
		t.Fatal(err)
	}
	owners, err := seedClients(w, clients, pages)
	if err != nil {
		t.Fatal(err)
	}
	return w, owners[0]
}

// awaitRepairStart blocks until the deployment is mid-repair (or the
// repair already finished, signalled on done).
func awaitRepairStart(w *core.Warp, done chan error) {
	for !w.DB.InRepair() {
		select {
		case err := <-done:
			done <- err // repair already over; requeue the result for the caller
			return
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// onlineEquivRun runs one repair with a fixed set of live writes fired
// mid-repair — three into a partition no repair item touches and three
// into the first repaired client's partition — and returns the final
// hot-table contents. On the stop-the-world baseline the same requests block at
// the suspension barrier and execute after the commit; either way the
// deterministic request set must leave the database in the same state.
func onlineEquivRun(t *testing.T, exclusive bool) []string {
	t.Helper()
	const clients, pages = 6, 2
	w, owner0 := onlineDeployment(t, clients, pages, 2*time.Millisecond,
		core.Config{Seed: 99}, exclusive)

	done := make(chan error, 1)
	go func() {
		_, err := patchLogin(w)
		done <- err
	}()
	awaitRepairStart(w, done)

	for i := 0; i < 6; i++ {
		owner := "live"
		if i >= 3 {
			owner = owner0
		}
		id := 1_000_001 + i
		req := httpd.NewRequest("GET", fmt.Sprintf("/page?owner=%s&id=%d&body=live%d", owner, id, i))
		if resp := w.HandleRequest(req); resp.Status != 200 {
			t.Fatalf("live request %d failed with status %d", i, resp.Status)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rows, err := postsRows(w)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestOnlineRepairMatchesExclusive is the online-repair acceptance bar
// (docs/repair.md): coexistence is a latency optimization, never a
// semantic one. The same deployment, repair, and deterministic live
// request mix — disjoint and overlapping partitions — must end in
// byte-identical database contents whether live execution coexisted
// with the repair or was suspended for all of it.
func TestOnlineRepairMatchesExclusive(t *testing.T) {
	online := onlineEquivRun(t, false)
	exclusive := onlineEquivRun(t, true)
	if len(online) != len(exclusive) {
		t.Fatalf("row count differs: online %d vs exclusive %d\nonline: %v\nexclusive: %v",
			len(online), len(exclusive), online, exclusive)
	}
	for i := range online {
		if online[i] != exclusive[i] {
			t.Fatalf("row %d differs: online %q vs exclusive %q", i, online[i], exclusive[i])
		}
	}
}

// editHandler inserts or updates a post whose body arrives `|`-separated
// (stored newline-separated, so line-based three-way merge has lines to
// work with). The patched version hardens line1 — but only on the
// insert path, so a live UPDATE racing the repair carries the user's
// unpatched edit and must be merged, not overwritten.
func editHandler(patched bool, delay time.Duration) app.Script {
	return func(c *app.Ctx) *httpd.Response {
		body := strings.ReplaceAll(c.Req.Param("body"), "|", "\n")
		if c.Req.Param("new") != "" {
			if patched {
				body = strings.ReplaceAll(body, "line1", "line1-patched")
			}
			c.MustQuery("INSERT INTO posts (id, owner, body) VALUES (?, ?, ?)",
				sqldb.Int(atoi(c.Req.Param("id"))), sqldb.Text(c.Req.Param("owner")), sqldb.Text(body))
		} else if body != "" {
			c.MustQuery("UPDATE posts SET body = ? WHERE id = ?",
				sqldb.Text(body), sqldb.Int(atoi(c.Req.Param("id"))))
		}
		res := c.MustQuery("SELECT body FROM posts WHERE owner = ?", sqldb.Text(c.Req.Param("owner")))
		if delay > 0 {
			time.Sleep(delay)
		}
		return httpd.HTML("<html><body>" + fmt.Sprint(len(res.Rows)) + " posts</body></html>")
	}
}

// TestOnlineRepairMergesLiveWrite exercises the conflicting-live-write
// merge path: a live UPDATE lands on a row mid-repair while the repair
// is rewriting that row's history. The update's pre-image is the merge
// base, the repaired row is "theirs", the user's new value is "ours" —
// a clean three-way merge keeps both the retroactive patch and the
// user's edit. Timing-dependent (the update must land before the final
// commit window), so the run retries a few times and requires the merge
// to land at least once.
func TestOnlineRepairMergesLiveWrite(t *testing.T) {
	const want = "line1-patched\nline2\nline3-user"
	var got string
	for attempt := 0; attempt < 5; attempt++ {
		got = mergeRun(t)
		if got == want {
			return
		}
		t.Logf("attempt %d: live write missed the repair window (got %q)", attempt, got)
	}
	t.Fatalf("merge never happened: final body %q, want %q", got, want)
}

func mergeRun(t *testing.T) string {
	t.Helper()
	w := core.New(core.Config{Seed: 99})
	// The live update must land while the repair still drains, so the
	// replay loop merges it rather than the update running after the
	// commit: enough filler visits at enough simulated latency keep the
	// drain busy well past the moment the repair starts.
	const delay = 8 * time.Millisecond
	if err := install(w, editHandler(false, delay)); err != nil {
		t.Fatal(err)
	}

	b := w.NewBrowser()
	if p := b.Open("/page?new=1&id=1&owner=u0&body=line1|line2|line3"); p.DOM == nil {
		t.Fatal("seed visit failed")
	}
	for i := 2; i <= 12; i++ {
		if p := b.Open(fmt.Sprintf("/page?new=1&id=%d&owner=u0&body=filler", i)); p.DOM == nil {
			t.Fatal("filler visit failed")
		}
	}

	done := make(chan error, 1)
	go func() {
		_, err := w.RetroPatch("page.php", app.Version{Entry: editHandler(true, delay), Note: "harden line1"})
		done <- err
	}()
	awaitRepairStart(w, done)

	req := httpd.NewRequest("GET", "/page?id=1&owner=u0&body=line1|line2|line3-user")
	if resp := w.HandleRequest(req); resp.Status != 200 {
		t.Fatalf("live update failed with status %d", resp.Status)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	res, _, err := w.DB.Exec("SELECT body FROM posts WHERE id = ?", sqldb.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows for id=1, want 1", len(res.Rows))
	}
	return res.Rows[0][0].AsText()
}

// TestLiveExecDuringRepairStress hammers a mid-repair deployment with
// concurrent live traffic — two goroutines on partitions no repair item
// touches, two on repaired clients' partitions — and requires every
// request to succeed. Run under `go test -race ./...` in CI, this is
// the data-race gate for table-lock coexistence between live execution
// and the repair.
func TestLiveExecDuringRepairStress(t *testing.T) {
	const clients, pages = 8, 2
	w, owner0 := onlineDeployment(t, clients, pages, time.Millisecond, core.Config{Seed: 99}, false)

	done := make(chan error, 1)
	go func() {
		_, err := patchLogin(w)
		done <- err
	}()
	awaitRepairStart(w, done)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		owner := fmt.Sprintf("stress%d", g)
		if g >= 2 {
			owner = owner0 // overlap the partitions being repaired
		}
		base := 2_000_000 + g*100_000
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Cap the volume: nothing paces live writes, and there is no
			// reason to generate unbounded rows.
			for i := 0; i < 500; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := httpd.NewRequest("GET",
					fmt.Sprintf("/page?owner=%s&id=%d&body=s%d", owner, base+i, i))
				if resp := w.HandleRequest(req); resp.Status != 200 {
					errc <- fmt.Errorf("live request %s/%d failed with status %d", owner, i, resp.Status)
					return
				}
			}
		}()
	}

	err := <-done
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case lerr := <-errc:
		t.Fatal(lerr)
	default:
	}
	if rows, err := postsRows(w); err != nil || len(rows) < clients*pages {
		t.Fatalf("final table has %d rows (%v), want at least %d seeded", len(rows), err, clients*pages)
	}
}
