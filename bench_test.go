// Benchmarks that carry a bar benchmarks/warpload does not hold, gated
// by cmd/benchgate against BENCH_BASELINE.json in CI's bench job:
// allocs/op on the statement and record paths (BenchmarkNormalExec,
// BenchmarkInstrumentedExec, BenchmarkVersionChain,
// BenchmarkHandleRequest), the storage engine's scans (BenchmarkRangeScan,
// BenchmarkOrderByIndexed), and live latency during an online repair
// against a stop-the-world one (BenchmarkOnlineRepair). The paper's Table 6
// is warpload's; its repair tables are printed by cmd/warp-bench and
// their shapes held by tests.
package warp_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"warp/internal/bench"
	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
	"warp/internal/vclock"
	"warp/internal/webapp/wiki"
)

// normalExecDB builds the time-travel database BenchmarkNormalExec and
// the allocation gate share: an annotated, partitioned table seeded
// with a few hundred rows.
func normalExecDB(nRows int) *ttdb.DB {
	db := ttdb.Open(&vclock.Clock{})
	if err := db.Annotate("posts", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		panic(err)
	}
	if _, _, err := db.Exec("CREATE TABLE posts (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
		panic(err)
	}
	for i := 0; i < nRows; i++ {
		_, _, err := db.Exec("INSERT INTO posts (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(int64(i)), sqldb.Text(fmt.Sprintf("u%d", i%16)), sqldb.Text("seed body"))
		if err != nil {
			panic(err)
		}
	}
	return db
}

// BenchmarkNormalExec measures the normal-operation query fast path in
// isolation: repeated statement forms through the time-travel layer's
// statement cache — parse once, plan once, no per-execution
// re-stringify. Run with -benchmem; the committed baseline gates both
// ns/op and allocs/op (cmd/benchgate).
func BenchmarkNormalExec(b *testing.B) {
	const rows = 256
	b.Run("read-indexed", func(b *testing.B) {
		db := normalExecDB(rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Exec("SELECT body FROM posts WHERE id = ?", sqldb.Int(int64(i%rows))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-partition", func(b *testing.B) {
		db := normalExecDB(rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Exec("SELECT id FROM posts WHERE owner = ?", sqldb.Text(fmt.Sprintf("u%d", i%16))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update", func(b *testing.B) {
		db := normalExecDB(rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Exec("UPDATE posts SET body = ? WHERE id = ?",
				sqldb.Text("new body"), sqldb.Int(int64(i%rows))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert", func(b *testing.B) {
		db := normalExecDB(rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _, err := db.Exec("INSERT INTO posts (id, owner, body) VALUES (?, ?, ?)",
				sqldb.Int(int64(rows+i)), sqldb.Text("u0"), sqldb.Text("inserted"))
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVersionChain measures what a live point read and a live point
// write of one row cost as a function of how many versions the row has
// accumulated since the last GC (its chain). WARP's indexes order each
// key's versions latest-ending first and the visibility predicate bounds
// the probe (docs/storage.md "Index kinds"), so neither figure should
// grow with the chain; with single-column indexes over all versions both
// grew linearly. (The update side appends one version per iteration, so
// its chain is the labelled length plus b.N.)
func BenchmarkVersionChain(b *testing.B) {
	for _, op := range []string{"select", "update"} {
		for _, chain := range []int{1, 64, 1024} {
			b.Run(fmt.Sprintf("%s/chain=%d", op, chain), func(b *testing.B) {
				db := normalExecDB(16)
				update := func() {
					if _, _, err := db.Exec("UPDATE posts SET body = ? WHERE owner = ?",
						sqldb.Text("new body"), sqldb.Text("u3")); err != nil {
						b.Fatal(err)
					}
				}
				for i := 1; i < chain; i++ {
					update()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if op == "update" {
						update()
					} else if _, _, err := db.Exec("SELECT body FROM posts WHERE owner = ?", sqldb.Text("u3")); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestNormalExecAllocBudget is the in-tree allocation gate for the
// normal-operation path: a cached indexed read must stay a small-constant
// allocation operation (no per-execution parse, clone, stringify, or
// per-row evaluation contexts). The bound is deliberately loose — it
// catches order-of-magnitude regressions, while CI's benchgate compares
// exact allocs/op against the committed baseline.
func TestNormalExecAllocBudget(t *testing.T) {
	measure := func(t *testing.T, label string) {
		db := normalExecDB(256)
		// Warm the statement cache and the compiled plan.
		if _, _, err := db.Exec("SELECT body FROM posts WHERE id = ?", sqldb.Int(1)); err != nil {
			t.Fatal(err)
		}
		i := int64(0)
		avg := testing.AllocsPerRun(200, func() {
			i++
			if _, _, err := db.Exec("SELECT body FROM posts WHERE id = ?", sqldb.Int(i%256)); err != nil {
				t.Fatal(err)
			}
		})
		const budget = 40
		if avg > budget {
			t.Fatalf("%s: cached indexed read costs %.1f allocs/op, budget %d", label, avg, budget)
		}
		t.Logf("%s: cached indexed read: %.1f allocs/op (budget %d)", label, avg, budget)

		// The write fast path: a cached indexed UPDATE reuses its
		// parameterized augmentation (no clone or re-derived WHERE) and runs
		// as one engine statement that keeps its own before-image, so it
		// too must stay a small-constant allocation operation.
		if _, _, err := db.Exec("UPDATE posts SET body = ? WHERE id = ?",
			sqldb.Text("w"), sqldb.Int(1)); err != nil {
			t.Fatal(err)
		}
		i = 0
		avg = testing.AllocsPerRun(200, func() {
			i++
			if _, _, err := db.Exec("UPDATE posts SET body = ? WHERE id = ?",
				sqldb.Text("w"), sqldb.Int(i%256)); err != nil {
				t.Fatal(err)
			}
		})
		const updateBudget = 50
		if avg > updateBudget {
			t.Fatalf("%s: cached indexed update costs %.1f allocs/op, budget %d", label, avg, updateBudget)
		}
		t.Logf("%s: cached indexed update: %.1f allocs/op (budget %d)", label, avg, updateBudget)

		// INSERT rides the same road: one cached parameterized
		// augmentation (row ID, time, and generation as trailing
		// parameters), no per-execution clone or literal baking.
		insert := func() {
			i++
			if _, _, err := db.Exec("INSERT INTO posts (id, owner, body) VALUES (?, ?, ?)",
				sqldb.Int(1000+i), sqldb.Text("u0"), sqldb.Text("inserted")); err != nil {
				t.Fatal(err)
			}
		}
		insert()
		avg = testing.AllocsPerRun(200, insert)
		const insertBudget = 80
		if avg > insertBudget {
			t.Fatalf("%s: cached insert costs %.1f allocs/op, budget %d", label, avg, insertBudget)
		}
		t.Logf("%s: cached insert: %.1f allocs/op (budget %d)", label, avg, insertBudget)

		// An aggregate partition select runs compiled too: every aggregate
		// is a slot filled in one pass through a compiled argument, so its
		// cost must not grow with the partition. A 64-row partition may
		// cost a few allocations more than a 4-row one (the matched-slot
		// list doubles as it grows), never one per row.
		if err := db.Annotate("votes", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"node_id"}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := db.Exec("CREATE TABLE votes (id INTEGER PRIMARY KEY, node_id INTEGER, val INTEGER)"); err != nil {
			t.Fatal(err)
		}
		for id := int64(0); id < 68; id++ {
			node := int64(1) // 4 votes on node 1, 64 on node 2
			if id >= 4 {
				node = 2
			}
			if _, _, err := db.Exec("INSERT INTO votes (id, node_id, val) VALUES (?, ?, ?)",
				sqldb.Int(id), sqldb.Int(node), sqldb.Int(id%3-1)); err != nil {
				t.Fatal(err)
			}
		}
		tally := func(node, want int64) float64 {
			return testing.AllocsPerRun(200, func() {
				res, _, err := db.Exec("SELECT COUNT(*), COALESCE(SUM(val), 0) FROM votes WHERE node_id = ?", sqldb.Int(node))
				if err != nil || res.Rows[0][0].AsInt() != want {
					t.Fatalf("tally of node %d: %v, %v", node, res, err)
				}
			})
		}
		small, large := tally(1, 4), tally(2, 64)
		const aggBudget, growth = 40, 8
		if large > aggBudget || large > small+growth {
			t.Fatalf("%s: aggregate partition select costs %.1f allocs/op over 4 rows and %.1f over 64, budget %d and +%d",
				label, small, large, aggBudget, growth)
		}
		t.Logf("%s: aggregate partition select: %.1f allocs/op over 4 rows, %.1f over 64 (budget %d)", label, small, large, aggBudget)
	}
	measure(t, "plain")
	// The instrumented path (docs/observability.md) must fit the SAME
	// budgets: histogram observation is three atomic adds and shape
	// classification is a return value, so enabling obs adds clock reads
	// but zero allocations.
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	measure(t, "instrumented")
}

// wikiReadDeployment builds an in-memory GoWiki with nPages pages and one
// logged-in session, and returns ready-made page-read requests (one per
// page, session cookie attached) plus the two ways to serve them: the
// recording path (Warp.HandleRequest) and its record-free twin — the same
// route, the same run through the time-travel database, nothing left
// behind in the history graph.
func wikiReadDeployment(tb testing.TB, nPages int) (w *core.Warp, reqs []*httpd.Request, plain httpd.HandlerFunc) {
	return wikiReadDeploymentWith(tb, nPages, core.Config{Seed: 1})
}

// wikiReadDeploymentWith is wikiReadDeployment under a given config.
func wikiReadDeploymentWith(tb testing.TB, nPages int, cfg core.Config) (w *core.Warp, reqs []*httpd.Request, plain httpd.HandlerFunc) {
	w = core.New(cfg)
	a, err := wiki.Install(w)
	if err != nil {
		tb.Fatal(err)
	}
	if err := a.CreateUser("alice", "pw-alice", false); err != nil {
		tb.Fatal(err)
	}
	login := httpd.NewRequest("POST", "/login.php")
	login.Form.Set("user", "alice")
	login.Form.Set("password", "pw-alice")
	sid := w.HandleRequest(login).SetCookies["sid"]
	if sid == "" {
		tb.Fatal("login set no session cookie")
	}
	for i := 0; i < nPages; i++ {
		title := fmt.Sprintf("P%d", i)
		if err := a.CreatePage(title, "body of "+title, false); err != nil {
			tb.Fatal(err)
		}
		req := httpd.NewRequest("GET", "/index.php?title="+title)
		req.Cookies["sid"] = sid
		reqs = append(reqs, req)
	}
	plain = func(req *httpd.Request) *httpd.Response {
		file, ok := w.Runtime.RouteOf(req.Path)
		if !ok {
			return httpd.NotFound("no route for " + req.Path)
		}
		rec, err := w.Runtime.Run(file, req, nil, nil)
		if err != nil {
			return httpd.ServerError(err.Error())
		}
		return rec.Resp
	}
	return w, reqs, plain
}

// BenchmarkHandleRequest is the record path's micro-benchmark: a warm
// wiki page read (one point select) through Warp.HandleRequest against
// its record-free twin. The difference is what recording a request costs;
// benchgate holds both between warpload runs (docs/performance.md "What
// one request records").
func BenchmarkHandleRequest(b *testing.B) {
	const pages, gcEvery = 256, 10000
	run := func(b *testing.B, reqs []*httpd.Request, serve httpd.HandlerFunc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := serve(reqs[i%pages]); resp.Status != 200 {
				b.Fatalf("status %d", resp.Status)
			}
		}
	}
	b.Run("wiki-read", func(b *testing.B) {
		w, reqs, _ := wikiReadDeployment(b, pages)
		served := 0
		run(b, reqs, func(req *httpd.Request) *httpd.Response {
			// History is collected on warpload's cadence, so the steady
			// state measured includes the collector's share.
			if served++; served%gcEvery == 0 {
				if err := w.GC(w.Clock.Now()); err != nil {
					b.Fatal(err)
				}
			}
			return w.HandleRequest(req)
		})
	})
	b.Run("wiki-read-plain", func(b *testing.B) {
		_, reqs, plain := wikiReadDeployment(b, pages)
		run(b, reqs, plain)
	})
}

// TestRecordAllocBudget is the allocation gate of the record path, next
// to TestNormalExecAllocBudget: a warm wiki page read through
// Warp.HandleRequest, and the share of it that recording adds over the
// record-free twin. What a request leaves behind is a few flat
// allocations (one array of actions, one of edges, one of query
// payloads, the run payload, the query-ID list) plus the amortized growth
// of the graph's slab and postings.
func TestRecordAllocBudget(t *testing.T) {
	const pages = 64
	w, reqs, plain := wikiReadDeployment(t, pages)
	measure := func(serve httpd.HandlerFunc) float64 {
		i := 0
		one := func() {
			i++
			if resp := serve(reqs[i%pages]); resp.Status != 200 {
				t.Fatalf("status %d", resp.Status)
			}
		}
		for j := 0; j < 2*pages; j++ {
			one() // warm: statement handles, interned nodes
		}
		return testing.AllocsPerRun(500, one)
	}
	total, bare := measure(w.HandleRequest), measure(plain)
	const totalBudget, recordBudget = 70, 12
	t.Logf("wiki page read: %.1f allocs/op recorded, %.1f record-free, record's share %.1f (budgets %d and %d)",
		total, bare, total-bare, totalBudget, recordBudget)
	if total > totalBudget || total-bare > recordBudget {
		t.Fatalf("wiki page read costs %.1f allocs/op (budget %d), of which recording %.1f (budget %d)",
			total, totalBudget, total-bare, recordBudget)
	}
}

// TestReexecRunAllocBudget is the allocation gate of re-execution, next
// to TestRecordAllocBudget: allocations per re-executed run in a full
// retroactive patch with no live traffic — the clickjacking patch of the
// library every wiki page loads, so every page read re-executes. A
// re-executed run pays for its app code, its queries and its
// record; the controller compares the new response with the old instead
// of hashing both, re-executes the recorded request without copying it,
// and serves a read nothing dirtied from its record without entering the
// database.
func TestReexecRunAllocBudget(t *testing.T) {
	const pages, reads = 32, 4
	w, reqs, _ := wikiReadDeploymentWith(t, pages, core.Config{Seed: 1})
	for i := 0; i < reads*pages; i++ {
		if resp := w.HandleRequest(reqs[i%pages]); resp.Status != 200 {
			t.Fatalf("status %d", resp.Status)
		}
	}
	v, ok := (&wiki.App{W: w}).VulnerabilityByKind("Clickjacking")
	if !ok {
		t.Fatal("no clickjacking patch")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := w.RetroPatch(v.File, v.Patch)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AppRunsReexecuted < reads*pages {
		t.Fatalf("%d runs re-executed, want at least the %d page reads", rep.AppRunsReexecuted, reads*pages)
	}
	perRun := float64(after.Mallocs-before.Mallocs) / float64(rep.AppRunsReexecuted)
	// Measured 66.6 (go1.24, linux/amd64) plus 10 %; executing the page
	// read through ttdb and sqldb instead of serving it cost 11.6 more, the
	// request copy and the two fingerprints before that 18.7.
	const budget = 73
	t.Logf("full retro-patch: %d runs re-executed, %.1f allocs per run (budget %d)", rep.AppRunsReexecuted, perRun, budget)
	if perRun > budget {
		t.Fatalf("a re-executed run costs %.1f allocs, budget %d", perRun, budget)
	}
}

// BenchmarkInstrumentedExec is BenchmarkNormalExec's read and write
// fast paths with observability enabled (docs/observability.md): the
// per-plan-shape latency histograms record every execution. The gate is
// overhead — the instrumented ns/op must stay within a few percent of
// the plain benchmark (two clock reads plus three atomic adds per exec)
// with identical allocs/op; benchgate holds both against the baseline.
func BenchmarkInstrumentedExec(b *testing.B) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	const rows = 256
	b.Run("read-indexed", func(b *testing.B) {
		db := normalExecDB(rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Exec("SELECT body FROM posts WHERE id = ?", sqldb.Int(int64(i%rows))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update", func(b *testing.B) {
		db := normalExecDB(rows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Exec("UPDATE posts SET body = ? WHERE id = ?",
				sqldb.Text("new body"), sqldb.Int(int64(i%rows))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// rangeScanDB builds the plain SQL engine BenchmarkRangeScan and
// BenchmarkOrderByIndexed share: one table, nRows rows with a dense
// integer key, and an ordered index on that key.
func rangeScanDB(nRows int) *sqldb.DB {
	db := sqldb.Open()
	for _, q := range []string{
		"CREATE TABLE events (k INTEGER, note TEXT)",
		"CREATE INDEX idx_events_k ON events (k)",
	} {
		if _, err := db.Exec(q); err != nil {
			panic(err)
		}
	}
	for i := 0; i < nRows; i++ {
		_, err := db.Exec("INSERT INTO events (k, note) VALUES (?, ?)",
			sqldb.Int(int64(i)), sqldb.Text(fmt.Sprintf("note %d", i)))
		if err != nil {
			panic(err)
		}
	}
	return db
}

// benchRangeQuery runs query (expecting exactly two range parameters) over
// a moving 100-row window of a 10k-row table and checks the result size,
// so both the indexed and the forced-full-scan variants do identical
// logical work.
func benchRangeQuery(b *testing.B, query string) {
	const nRows, window = 10000, 100
	db := rangeScanDB(nRows)
	// Warm the statement cache and the compiled plan.
	if _, err := db.Exec(query, sqldb.Int(0), sqldb.Int(window)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64((i * 97) % (nRows - window))
		res, err := db.Exec(query, sqldb.Int(lo), sqldb.Int(lo+window))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != window {
			b.Fatalf("got %d rows, want %d", len(res.Rows), window)
		}
	}
}

// BenchmarkRangeScan measures a bounded range predicate on a 10k-row
// table: the ordered-index walk against the same predicate phrased so the
// planner cannot use the index (`k + 0` is not a bare column). The gap is
// the storage engine's range-scan win; benchgate holds both sides.
func BenchmarkRangeScan(b *testing.B) {
	b.Run("indexed", func(b *testing.B) {
		benchRangeQuery(b, "SELECT note FROM events WHERE k >= ? AND k < ?")
	})
	b.Run("fullscan", func(b *testing.B) {
		benchRangeQuery(b, "SELECT note FROM events WHERE k + 0 >= ? AND k + 0 < ?")
	})
}

// BenchmarkOrderByIndexed measures ORDER BY on an indexed column: the
// index-order path (no sort step — see TestExplainOrderByIndexedNoSort)
// against the
// same query phrased to force a full scan plus an explicit sort.
func BenchmarkOrderByIndexed(b *testing.B) {
	b.Run("indexed", func(b *testing.B) {
		benchRangeQuery(b, "SELECT note FROM events WHERE k >= ? AND k < ? ORDER BY k")
	})
	b.Run("sorted", func(b *testing.B) {
		benchRangeQuery(b, "SELECT note FROM events WHERE k + 0 >= ? AND k + 0 < ? ORDER BY k + 0")
	})
}

// BenchmarkOnlineRepair is the headline number for online repair
// (docs/repair.md "Online repair"): one client keeps issuing paced
// requests against its own partition while a repair drains, and the
// benchmark reports that client's p99 and worst stall mid-repair next
// to its idle p99. The "online" run coexists with the repair
// (admission gate, suspension only for the final commit
// window); the "stop-the-world" run is core's baseline deployment,
// so its max-stall-ms approaches repair-ms — the suspension online
// repair removes. TestOnlineRepairMatchesExclusive holds the two
// configurations to identical final database contents.
func BenchmarkOnlineRepair(b *testing.B) {
	const (
		clients = 16
		pages   = 3
		latency = 1500 * time.Microsecond
	)
	run := func(b *testing.B, exclusive bool) {
		var liveP99, idleP99, stall, repair, reqs float64
		for i := 0; i < b.N; i++ {
			res, err := bench.OnlineRepair(clients, pages, latency, exclusive)
			if err != nil {
				b.Fatal(err)
			}
			if want := clients * (pages + 1); res.Report.PageVisitsReplayed != want {
				b.Fatalf("visits replayed = %d, want %d", res.Report.PageVisitsReplayed, want)
			}
			liveP99 += float64(res.LiveP99.Microseconds()) / 1000
			idleP99 += float64(res.IdleP99.Microseconds()) / 1000
			stall += float64(res.MaxStall.Microseconds()) / 1000
			repair += float64(res.RepairTime.Microseconds()) / 1000
			reqs += float64(res.LiveRequests)
		}
		n := float64(b.N)
		b.ReportMetric(liveP99/n, "live-p99-ms")
		b.ReportMetric(idleP99/n, "idle-p99-ms")
		b.ReportMetric(stall/n, "max-stall-ms")
		b.ReportMetric(repair/n, "repair-ms")
		b.ReportMetric(reqs/n, "live-reqs")
	}
	b.Run("online", func(b *testing.B) { run(b, false) })
	b.Run("stop-the-world", func(b *testing.B) { run(b, true) })
}
