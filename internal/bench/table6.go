package bench

import (
	"fmt"
	"math/rand"
	"time"

	"warp/internal/app"
	"warp/internal/attacks"
	"warp/internal/browser"
	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
	"warp/internal/webapp/wiki"
	"warp/internal/workload"
)

// Table6Row is one row of Table 6: page visits per second for a workload
// in three server configurations, plus per-visit log storage by layer.
type Table6Row struct {
	Workload string

	NoWARPVisitsPerSec float64
	WARPVisitsPerSec   float64
	DuringRepairPerSec float64

	BrowserBytesPerVisit float64
	AppBytesPerVisit     float64
	DBBytesPerVisit      float64

	// Exec is the database layer's execution-path counters over the WARP
	// configuration's measurement window: statement-cache/plan hit rates
	// and index-vs-full scan counts.
	Exec sqldb.ExecStats
}

// Table6 measures WARP's normal-operation overhead (§8.5): reading and
// editing workloads against the plain application stack ("No WARP"), the
// same stack under WARP logging, and under WARP while a repair runs
// concurrently. visitsPerConfig controls measurement length.
func Table6(visitsPerConfig int) ([]Table6Row, error) {
	rows := []Table6Row{{Workload: "Reading"}, {Workload: "Editing"}}

	// --- No WARP baseline: same application code, plain SQL engine, no
	// logging, no versioning, no extension.
	plainRead, plainEdit, err := baselineThroughput(visitsPerConfig)
	if err != nil {
		return nil, err
	}
	rows[0].NoWARPVisitsPerSec = plainRead
	rows[1].NoWARPVisitsPerSec = plainEdit

	// --- WARP: full logging pipeline.
	for i, editing := range []bool{false, true} {
		vps, stor, visits, exec, err := warpThroughput(visitsPerConfig, editing, false)
		if err != nil {
			return nil, err
		}
		rows[i].WARPVisitsPerSec = vps
		rows[i].Exec = exec
		if visits > 0 {
			rows[i].BrowserBytesPerVisit = float64(stor.BrowserLogBytes) / float64(visits)
			rows[i].AppBytesPerVisit = float64(stor.AppLogBytes) / float64(visits)
			rows[i].DBBytesPerVisit = float64(stor.DBLogBytes+stor.DBRowBytes) / float64(visits)
		}
	}

	// --- WARP during concurrent repair (§4.3).
	for i, editing := range []bool{false, true} {
		vps, _, _, _, err := warpThroughput(visitsPerConfig, editing, true)
		if err != nil {
			return nil, err
		}
		rows[i].DuringRepairPerSec = vps
	}
	return rows, nil
}

// baselineThroughput measures the application without WARP: handlers run
// against a plain engine and nothing is recorded.
func baselineThroughput(visits int) (readVPS, editVPS float64, err error) {
	// The runtime is only used as a script host; queries bypass ttdb.
	w := core.New(core.Config{Seed: 77})
	app, err := wiki.Install(w)
	if err != nil {
		return 0, 0, err
	}
	_ = app
	plain := sqldb.Open()
	for _, ddl := range wiki.Schema() {
		if _, err := plain.Exec(ddl); err != nil {
			return 0, 0, err
		}
	}
	if _, err := plain.Exec("INSERT INTO users (user_id, name, password, is_admin) VALUES (1, 'alice', 'pw-alice', FALSE)"); err != nil {
		return 0, 0, err
	}
	if _, err := plain.Exec("INSERT INTO pages (page_id, title, content) VALUES (1, 'Main', 'welcome')"); err != nil {
		return 0, 0, err
	}
	if _, err := plain.Exec("INSERT INTO sessions (sid, user_id) VALUES ('plain-sid', 1)"); err != nil {
		return 0, 0, err
	}
	qf := func(sql string, params []sqldb.Value) (*sqldb.Result, *ttdb.Record, error) {
		res, err := plain.Exec(sql, params...)
		return res, nil, err
	}
	serve := plainTransport(w, qf)
	b := browser.New(serve, nil, rand.New(rand.NewSource(9)))
	b.HasExtension = false
	b.SetCookie("sid", "plain-sid")

	readVPS = measure(visits, func(i int) {
		b.Open("/index.php?title=Main")
	})
	editVPS = measure(visits, func(i int) {
		p := b.Open("/edit.php?title=Main")
		p.TypeInto("content", fmt.Sprintf("content v%d", i))
		p.Submit(0)
	})
	return readVPS, editVPS, nil
}

// warpThroughput measures the full WARP pipeline, optionally with a large
// repair running concurrently.
func warpThroughput(visits int, editing, duringRepair bool) (float64, core.StorageStats, int, sqldb.ExecStats, error) {
	var res *workload.Result
	var err error
	if duringRepair {
		// Build a workload whose repair re-executes nearly everything, and
		// measure while that repair runs.
		sc, _ := attacks.ByName("Clickjacking")
		res, err = workload.Run(workload.Config{Users: 30, Victims: 3, Seed: 78, Scenario: sc, RepairWorkers: DefaultRepairWorkers})
	} else {
		res, err = workload.Run(workload.Config{Users: 6, Seed: 78})
	}
	if err != nil {
		return 0, core.StorageStats{}, 0, sqldb.ExecStats{}, err
	}
	w := res.Env.W
	b := w.NewBrowser()
	u := res.Env.Others[0]
	login(u.Name, b)

	storBefore := w.Storage()
	execBefore := w.Metrics().Exec
	repairDone := make(chan error, 1)
	if duringRepair {
		sc, _ := attacks.ByName("Clickjacking")
		go func() {
			_, err := sc.Repair(res.Env)
			repairDone <- err
		}()
		// Give repair a moment to get going.
		time.Sleep(2 * time.Millisecond)
	}
	vps := measure(visits, func(i int) {
		if editing {
			p := b.Open("/edit.php?title=Page-" + u.Name)
			if p.DOM != nil && p.DOM.ByName("content") != nil {
				p.TypeInto("content", fmt.Sprintf("bench content %d", i))
				p.Submit(0)
			}
		} else {
			b.Open("/index.php?title=Page-" + u.Name)
		}
	})
	if duringRepair {
		if err := <-repairDone; err != nil {
			return 0, core.StorageStats{}, 0, sqldb.ExecStats{}, err
		}
	}
	storAfter := w.Storage()
	stor := core.StorageStats{
		BrowserLogBytes: storAfter.BrowserLogBytes - storBefore.BrowserLogBytes,
		AppLogBytes:     storAfter.AppLogBytes - storBefore.AppLogBytes,
		DBLogBytes:      storAfter.DBLogBytes - storBefore.DBLogBytes,
		DBRowBytes:      storAfter.DBRowBytes - storBefore.DBRowBytes,
	}
	exec := w.Metrics().Exec.Sub(execBefore)
	return vps, stor, storAfter.PageVisits - storBefore.PageVisits, exec, nil
}

// login drives the login flow on a fresh browser.
func login(name string, b *browser.Browser) {
	p := b.Open("/login.php")
	p.TypeInto("user", name)
	p.TypeInto("password", "pw-"+name)
	p.Submit(0)
}

// measure runs fn n times and returns iterations per second.
func measure(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Seconds()
}

// ExtensionOverhead measures page-open latency with and without the WARP
// browser extension (the §8.5 load-time comparison).
func ExtensionOverhead(visits int) (withExt, withoutExt time.Duration, err error) {
	res, err := workload.Run(workload.Config{Users: 6, Seed: 79})
	if err != nil {
		return 0, 0, err
	}
	w := res.Env.W
	for _, hasExt := range []bool{true, false} {
		b := w.NewBrowser()
		b.HasExtension = hasExt
		// Warm up before timing so the first configuration does not pay
		// one-time cache costs.
		for i := 0; i < visits/4; i++ {
			b.Open("/index.php?title=Main")
		}
		start := time.Now()
		for i := 0; i < visits; i++ {
			b.Open("/index.php?title=Main")
		}
		d := time.Since(start) / time.Duration(visits)
		if hasExt {
			withExt = d
		} else {
			withoutExt = d
		}
	}
	return withExt, withoutExt, nil
}

// plainTransport builds a transport that routes through the runtime with
// a caller-supplied query function and performs no recording.
func plainTransport(w *core.Warp, qf app.QueryFunc) browser.Transport {
	return func(req *httpd.Request) *httpd.Response {
		file, ok := w.Runtime.RouteOf(req.Path)
		if !ok {
			return httpd.NotFound("no route")
		}
		rec, err := w.Runtime.Run(file, req, qf, nil)
		if err != nil {
			return httpd.ServerError(err.Error())
		}
		return rec.Resp
	}
}
