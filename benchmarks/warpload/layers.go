package main

import (
	"net/http"
	"strings"
	"time"

	"warp/internal/app"
	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// ledgerRow is one line of the per-request cost ledger: a layer's share
// of the mean ServeHTTP span over the traced sat phase.
type ledgerRow struct {
	Layer string  `json:"layer"`
	Us    float64 `json:"us_per_req"`
	Share float64 `json:"share"`
}

// engineShapes are the sqldb plan shapes reported one by one.
var engineShapes = []string{"select_eq", "select_full", "insert", "update"}

// probeShapes are the statement shapes the ttdb-versus-raw-sqldb probe
// reports: a point select by unique key, a multi-row partition select,
// an insert, an update.
var probeShapes = []string{"select_eq", "select_part", "insert", "update"}

// layerWindow turns the layers' own histograms and counters over the
// traced sat phase into per-layer metrics and the ledger. Everything
// below HandleRequest is measured by the program's instrumentation and
// read from outside through Metrics(); httpd's share is the difference
// between the two benchmark-side spans.
func (r *runner) layerWindow(win *window, sat phase) {
	exec, hist, reqs := win.exec, win.hist, float64(sat.reqs)
	perReq := func(h obs.HistSnapshot) float64 { return us(time.Duration(h.Sum)) / reqs }

	request := hist("warp_core_request_seconds")
	r.set("core.request_us", us(request.Mean()))
	r.set("core.request_p99_us", us(request.Quantile(0.99)))

	var stmts obs.HistSnapshot
	for name, h := range win.hists {
		if strings.HasPrefix(name, "warp_sqldb_exec_seconds") {
			stmts.Merge(h)
		}
	}
	r.set("sqldb.exec_us", perReq(stmts))
	r.set("sqldb.stmts_per_req", float64(stmts.Count)/reqs)
	for _, shape := range engineShapes {
		r.set("sqldb.exec_us."+shape, us(hist(`warp_sqldb_exec_seconds{shape="`+shape+`"}`).Mean()))
	}
	r.set("sqldb.full_scans_per_kreq", 1000*float64(exec.FullScans)/reqs)
	r.set("sqldb.plan_hit_ratio", ratio(exec.PlanHits, exec.PlanMisses))
	r.set("sqldb.stmt_hit_ratio", ratio(exec.StmtCacheHits, exec.StmtCacheMisses))

	locks := hist("warp_ttdb_lock_wait_seconds")
	r.set("ttdb.lock_wait_us", perReq(locks))
	r.set("ttdb.lock_waits_per_kreq", 1000*float64(locks.Count)/reqs)
	r.set("ttdb.escalations", float64(win.counters["warp_ttdb_scope_escalations_total"]))

	wal := hist("warp_store_wal_append_seconds")
	r.set("store.wal_append_us", perReq(wal))

	serve, handle := us(r.spans.mean("sat", "httpd.ServeHTTP")), us(r.spans.mean("sat", "core.HandleRequest"))
	httpdSelf := serve - handle
	residual := handle - perReq(stmts) - perReq(locks) - perReq(wal)
	r.set("httpd.self_us", httpdSelf)
	r.set("core.residual_us", residual)
	for _, row := range []ledgerRow{
		{Layer: "httpd.self_us", Us: httpdSelf},
		{Layer: "sqldb.exec_us", Us: perReq(stmts)},
		{Layer: "ttdb.lock_wait_us", Us: perReq(locks)},
		{Layer: "store.wal_append_us", Us: perReq(wal)},
		{Layer: "core.residual_us", Us: residual},
		{Layer: "= httpd.ServeHTTP mean", Us: serve},
	} {
		row.Share = row.Us / serve
		r.ledger = append(r.ledger, row)
	}
}

// storeWindow reports the durability layer over the whole serving
// section: its counters are always live, and checkpoints are too rare to
// read off one phase. (The two latency histograms only saw the traced
// slices.)
func (r *runner) storeWindow(win *window, served int64, elapsed time.Duration) {
	reqs := float64(served)
	r.set("store.wal_bytes_per_req", float64(win.counters["warp_store_wal_append_bytes_total"])/reqs)
	r.set("store.fsyncs_per_s", float64(win.counters["warp_store_wal_fsyncs_total"])/elapsed.Seconds())
	r.set("store.fsync_ms", ms(win.hist("warp_store_wal_fsync_seconds").Mean()))
	r.set("store.ckpt_count", float64(win.counters["warp_store_checkpoints_total"]))
	r.set("store.ckpt_ms", ms(win.hist("warp_store_checkpoint_seconds").Mean()))
	r.set("store.ckpt_bytes_per_req", float64(win.counters["warp_store_checkpoint_bytes_total"])/reqs)
}

// window accumulates the program's own metrics over several bracketed
// intervals (the sat slices of every round).
type window struct {
	hists    map[string]obs.HistSnapshot
	counters map[string]uint64
	exec     sqldb.ExecStats
}

func newWindow() *window {
	return &window{hists: map[string]obs.HistSnapshot{}, counters: map[string]uint64{}}
}

func (w *window) add(before, after core.Metrics) {
	d := after.Obs.Sub(before.Obs)
	for _, h := range d.Histograms {
		sum := w.hists[h.Name]
		sum.Merge(h.Hist)
		w.hists[h.Name] = sum
	}
	for _, c := range d.Counters {
		w.counters[c.Name] += c.Value
	}
	e := after.Exec.Sub(before.Exec)
	w.exec.StmtCacheHits += e.StmtCacheHits
	w.exec.StmtCacheMisses += e.StmtCacheMisses
	w.exec.PlanHits += e.PlanHits
	w.exec.PlanMisses += e.PlanMisses
	w.exec.IndexScans += e.IndexScans
	w.exec.FullScans += e.FullScans
}

func (w *window) hist(name string) obs.HistSnapshot { return w.hists[name] }

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// repairLayers reports where a traced full repair spent its time: the
// controller's own Table 7 breakdown, the repair trace's phases, and the
// per-work-item histogram.
func (r *runner) repairLayers(d *deployment, before core.Metrics, rep *core.Report) {
	t := rep.Timing
	for name, v := range map[string]time.Duration{"graph": t.Graph, "browser": t.Browser, "db": t.DB, "app": t.App, "ctrl": t.Ctrl} {
		r.set("core.repair."+name+"_ms", ms(v))
	}
	after := d.w.Metrics()
	if after.Repair != nil {
		for _, p := range []string{"frontier", "replay", "rollback", "commit"} {
			r.set("core.repair.phase."+p+"_ms", ms(after.Repair.Phase(p).Total))
		}
	}
	item, _ := after.Obs.Sub(before.Obs).Histogram("warp_core_repair_item_seconds")
	r.set("core.repair.item_us", us(item.Mean()))
}

// plainHandler is the "No WARP" configuration of Table 6: the same
// application code behind the same Adapter, its statements going straight
// to a plain engine, nothing recorded. onStmt, when set, replaces the
// statement call (the layer probe times it there).
func plainHandler(d *deployment, plain *sqldb.DB, onStmt func(sql string, params []sqldb.Value) (*sqldb.Result, error)) http.Handler {
	query := func(sql string, params []sqldb.Value) (*sqldb.Result, *ttdb.Record, error) {
		if onStmt != nil {
			res, err := onStmt(sql, params)
			return res, nil, err
		}
		res, err := plain.Exec(sql, params...)
		return res, nil, err
	}
	return &httpd.Adapter{Handler: func(req *httpd.Request) *httpd.Response {
		file, ok := d.w.Runtime.RouteOf(req.Path)
		if !ok {
			return httpd.NotFound("no route for " + req.Path)
		}
		rec, err := d.w.Runtime.Run(file, req, query, nil)
		if err != nil {
			return httpd.ServerError(err.Error())
		}
		return rec.Resp
	}}
}

// shapeOf classifies an application statement for the probe.
func shapeOf(sql string) string {
	switch {
	case strings.HasPrefix(sql, "INSERT"):
		return "insert"
	case strings.HasPrefix(sql, "UPDATE"):
		return "update"
	case !strings.HasPrefix(sql, "SELECT"):
		return ""
	case strings.Contains(sql, "COUNT(") || strings.Contains(sql, "FROM comments"):
		return "select_part"
	}
	return "select_eq"
}

// probe measures the layers a request cannot be split into from outside:
// it runs a sample of the workload's own requests through the plain
// handler, and times every statement they issue twice — on a raw sqldb
// engine and on the deployment's time-travel database, which start from
// equal data and see the same statements in the same order. What is
// left of a request after its statements is the application's own run
// time; the ratio of the two statement times is the time-travel tax per
// shape.
//
// The time-travel side runs each statement inside a request to a source
// file the probe registers, not by calling DB.Exec from outside: a
// durable deployment checkpoints in the background, and only requests
// are quiesced around a checkpoint.
func (r *runner) probe(d *deployment, stream []pop, cur *cursor) {
	raw, err := d.twin()
	if err != nil {
		r.fail("probe twin: %v", err)
		return
	}
	var stmt struct {
		sql    string
		params []sqldb.Value
		took   time.Duration
		err    error
	}
	entry := func(c *app.Ctx) *httpd.Response {
		t0 := time.Now()
		_, stmt.err = c.Query(stmt.sql, stmt.params...)
		stmt.took = time.Since(t0)
		return httpd.HTML("ok")
	}
	if err := d.w.Runtime.Register("warpload-probe.php", app.Version{Entry: entry, Note: "warpload layer probe"}); err != nil {
		r.fail("probe: %v", err)
		return
	}
	d.w.Runtime.Mount("/warpload-probe", "warpload-probe.php")

	type cost struct {
		raw, tt time.Duration
		n       int
	}
	costs := map[string]*cost{}
	for _, s := range probeShapes {
		costs[s] = &cost{}
	}
	var inStmts time.Duration
	onStmt := func(sql string, params []sqldb.Value) (*sqldb.Result, error) {
		t0 := time.Now()
		res, err := raw.Exec(sql, params...)
		rawTook := time.Since(t0)
		stmt.sql, stmt.params = sql, params
		d.w.HandleRequest(httpd.NewRequest("GET", "/warpload-probe"))
		inStmts += time.Since(t0)
		if c := costs[shapeOf(sql)]; c != nil && err == nil && stmt.err == nil {
			c.raw, c.tt, c.n = c.raw+rawTook, c.tt+stmt.took, c.n+1
		}
		return res, err
	}
	h := plainHandler(d, raw, onStmt)
	ph := r.run(&target{handler: func(int) http.Handler { return h }}, stream, cur, 1, 0, limit{ops: r.sc.probeOps})
	r.set("app.run_us", us(ph.elapsed-inStmts)/float64(ph.reqs))
	for shape, c := range costs {
		if c.n == 0 {
			continue
		}
		r.set("sqldb.raw_exec_us."+shape, us(c.raw)/float64(c.n))
		r.set("ttdb.exec_us."+shape, us(c.tt)/float64(c.n))
		r.set("ttdb.tax_ratio."+shape, float64(c.tt)/float64(c.raw))
	}
}
