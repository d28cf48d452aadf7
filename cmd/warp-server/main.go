// Command warp-server runs GoWiki under WARP on a real net/http server,
// so the system can be driven from an actual browser. Administrative
// endpoints expose repair and observability:
//
//	GET  /warp/status                  — storage, conflict queue, exec
//	                                     counters, last checkpoint, and
//	                                     live repair progress (JSON)
//	GET  /warp/metrics                 — Prometheus text exposition of
//	                                     every registered metric
//	GET  /warp/health                  — ok/degraded, the last storage
//	                                     fault, and background scrub
//	                                     progress (JSON; 503 once the
//	                                     deployment degrades to
//	                                     read-only)
//	POST /warp/patch?kind=Stored+XSS   — retroactively apply a Table 2 patch
//	                                     (synchronous; response carries the
//	                                     repair report)
//	POST /warp/repair?kind=Stored+XSS  — the same patch, applied
//	                                     asynchronously: returns 202
//	                                     immediately and the repair runs
//	                                     online while the server keeps
//	                                     serving; progress via /warp/status
//	POST /warp/undo?client=C&visit=N   — undo a past page visit
//
// Repairs run online by default (docs/repair.md "Online repair"): live
// requests keep executing on partitions the repair has not claimed, and
// a live write to a claimed partition waits at most a short admission
// window before it executes. A repair itself is the paper's loop — one
// work item at a time, in time order — so the same history and patch
// repair the same way on any machine.
//
// With -debug-addr a second listener serves expvar (/debug/vars) and
// pprof (/debug/pprof/); with -slow-query every statement and repair
// action slower than the threshold is logged with its canonical SQL,
// plan shape, and duration. See docs/observability.md.
//
// With -data the deployment is durable (docs/persistence.md): the
// history graph and time-travel database are WAL-logged and snapshotted
// under the given directory, and restarting the server with the same
// directory recovers them — the audit trail survives deploys and
// crashes. Without -data everything lives in memory, as before.
//
// Real browsers have no WARP extension, so requests are logged with
// server-side identifiers (§7) and browser-level replay degrades to
// conflict reporting, exactly as §2.3 describes for extensionless clients.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"warp"
	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/sqldb"
	"warp/internal/webapp/wiki"
)

func main() {
	addr := flag.String("addr", ":8480", "listen address")
	data := flag.String("data", "", "persistence directory; empty runs in memory")
	compactEvery := flag.Int("compact-every", 0,
		"full (compacting) checkpoint after this many incremental ones (0 = store default of 8)")
	syncEvery := flag.Bool("sync-every-append", false,
		"fsync every WAL append (leader/follower group commit) instead of the windowed default")
	scrubInterval := flag.Duration("scrub-interval", 0,
		"background storage scrub period re-verifying sealed WAL segments and checkpoint files (0 disables; ignored without -data)")
	debugAddr := flag.String("debug-addr", "",
		"second listen address serving expvar (/debug/vars) and pprof (/debug/pprof/); empty disables")
	slowQuery := flag.Duration("slow-query", 0,
		"log statements and repair actions slower than this threshold (0 disables)")
	flag.Parse()

	// A server deployment always runs instrumented: the histograms are
	// zero-alloc atomic adds, and /warp/metrics needs them populated.
	obs.SetEnabled(true)
	if *slowQuery > 0 {
		sqldb.SetSlowQueryLog(*slowQuery, func(stmt string, shape sqldb.ExecShape, d time.Duration) {
			log.Printf("slow query shape=%s dur=%s sql=%s", shape, d, stmt)
		})
		core.SetSlowRepairLog(*slowQuery, func(item string, d time.Duration) {
			log.Printf("slow repair action dur=%s item=%s", d, item)
		})
	}

	cfg := warp.Config{Seed: 2026}
	cfg.Durability.CompactEvery = *compactEvery
	cfg.Durability.SyncEveryAppend = *syncEvery
	cfg.Durability.ScrubInterval = *scrubInterval
	var sys *warp.System
	var err error
	if *data != "" {
		sys, err = warp.Open(*data, cfg)
		if err != nil {
			log.Fatal(err)
		}
		st := sys.Recovery()
		log.Printf("persistent store %s: checkpoint=%v walRecords=%d tailCorrupt=%v",
			*data, st.FromSnapshot, st.WALRecords, st.TailCorrupt)
	} else {
		sys = warp.New(cfg)
	}
	app, err := wiki.Install(sys.Warp)
	if err != nil {
		log.Fatal(err)
	}
	if it := sys.PendingRepair(); it != nil {
		// A repair was in flight when the previous instance died. Undo
		// intents are self-contained; patch intents need the patched
		// code, which Install just re-registered at its base version, so
		// the administrator re-applies via /warp/patch.
		if it.Kind == warp.RepairIntentUndoVisit || it.Kind == warp.RepairIntentUndoPartition {
			rep, err := sys.ResumeRepair(nil)
			if err != nil {
				log.Printf("resuming crashed repair: %v", err)
			} else {
				log.Printf("resumed crashed repair: %s", rep.String())
			}
		} else {
			log.Printf("crashed retroactive patch of %s pending; re-apply via /warp/patch", it.File)
		}
	}
	// Seed accounts and pages (the pre-horizon base state). Seeding is
	// per-item idempotent — an entity that already exists (recovered
	// state, or a crash partway through a previous seeding) is skipped —
	// so a partially-seeded store completes on the next start.
	seeded := func(err error) error {
		if sqldb.IsUniqueViolation(err) {
			return nil
		}
		return err
	}
	for _, u := range []struct {
		name  string
		admin bool
	}{{"admin", true}, {"alice", false}, {"bob", false}} {
		if err := seeded(app.CreateUser(u.name, "pw-"+u.name, u.admin)); err != nil {
			log.Fatal(err)
		}
	}
	for _, p := range []string{"Main", "Sandbox", "TeamPage"} {
		if err := seeded(app.CreatePage(p, "welcome to "+p, false)); err != nil {
			log.Fatal(err)
		}
	}

	// asyncRepair tracks the one repair POST /warp/repair may have in
	// flight; /warp/status reports its progress.
	var asyncRepair struct {
		sync.Mutex
		running    bool
		kind       string
		started    time.Time
		lastKind   string
		lastResult string
		lastError  string
	}

	mux := http.NewServeMux()
	mux.Handle("/", &httpd.Adapter{Handler: sys.HandleRequest})
	mux.HandleFunc("/warp/status", func(w http.ResponseWriter, r *http.Request) {
		st := sys.Storage()
		type repairStatus struct {
			InRepair   bool                `json:"in_repair"`
			Kind       string              `json:"kind,omitempty"`
			ElapsedMS  int64               `json:"elapsed_ms,omitempty"`
			LastKind   string              `json:"last_kind,omitempty"`
			LastResult string              `json:"last_result,omitempty"`
			LastError  string              `json:"last_error,omitempty"`
			Trace      *warp.TraceSnapshot `json:"trace,omitempty"`
		}
		rst := repairStatus{InRepair: sys.DB.InRepair()}
		asyncRepair.Lock()
		if asyncRepair.running {
			rst.Kind = asyncRepair.kind
			rst.ElapsedMS = time.Since(asyncRepair.started).Milliseconds()
		}
		rst.LastKind = asyncRepair.lastKind
		rst.LastResult = asyncRepair.lastResult
		rst.LastError = asyncRepair.lastError
		asyncRepair.Unlock()
		if rst.InRepair {
			// The phase trace reflects live progress (frontier / replay /
			// rollback / commit spans) while the session runs.
			rst.Trace = sys.Metrics().Repair
		}
		status := struct {
			PageVisits      int                  `json:"page_visits"`
			BrowserLogBytes int                  `json:"browser_log_bytes"`
			AppLogBytes     int                  `json:"app_log_bytes"`
			DBLogBytes      int                  `json:"db_log_bytes"`
			DBRowBytes      int                  `json:"db_row_bytes"`
			ConflictsQueued int                  `json:"conflicts_queued"`
			ExecStats       warp.ExecStats       `json:"exec_stats"`
			LastCheckpoint  warp.CheckpointStats `json:"last_checkpoint"`
			Repair          repairStatus         `json:"repair"`
		}{
			PageVisits:      st.PageVisits,
			BrowserLogBytes: st.BrowserLogBytes,
			AppLogBytes:     st.AppLogBytes,
			DBLogBytes:      st.DBLogBytes,
			DBRowBytes:      st.DBRowBytes,
			ConflictsQueued: len(sys.Conflicts()),
			ExecStats:       sys.Metrics().Exec,
			LastCheckpoint:  sys.LastCheckpoint(),
			Repair:          rst,
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(status); err != nil {
			log.Printf("encoding /warp/status: %v", err)
		}
	})
	mux.Handle("/warp/metrics", obs.Handler())
	mux.HandleFunc("/warp/health", func(w http.ResponseWriter, r *http.Request) {
		h := sys.Health()
		status := "ok"
		code := http.StatusOK
		if h.Degraded {
			// Degraded deployments still serve reads, but a load balancer
			// health check should see them as unhealthy for writes.
			status = "degraded"
			code = http.StatusServiceUnavailable
		}
		body := struct {
			Status           string           `json:"status"`
			DegradedCause    string           `json:"degraded_cause,omitempty"`
			DegradedSince    *time.Time       `json:"degraded_since,omitempty"`
			LastStorageFault string           `json:"last_storage_fault,omitempty"`
			Scrub            *warp.ScrubStats `json:"scrub,omitempty"`
		}{Status: status, DegradedCause: h.DegradedCause, LastStorageFault: h.LastStorageFault}
		if h.Degraded {
			body.DegradedSince = &h.DegradedSince
		}
		if h.Scrub.Passes > 0 || len(h.Scrub.Quarantined) > 0 {
			body.Scrub = &h.Scrub
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(body); err != nil {
			log.Printf("encoding /warp/health: %v", err)
		}
	})
	mux.HandleFunc("/warp/patch", func(w http.ResponseWriter, r *http.Request) {
		kind := r.URL.Query().Get("kind")
		v, ok := app.VulnerabilityByKind(kind)
		if !ok || v.File == "" {
			http.Error(w, "unknown vulnerability kind", http.StatusBadRequest)
			return
		}
		rep, err := sys.RetroPatch(v.File, v.Patch)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "retroactive patch applied:", rep.String())
	})
	mux.HandleFunc("/warp/repair", func(w http.ResponseWriter, r *http.Request) {
		kind := r.URL.Query().Get("kind")
		v, ok := app.VulnerabilityByKind(kind)
		if !ok || v.File == "" {
			http.Error(w, "unknown vulnerability kind", http.StatusBadRequest)
			return
		}
		asyncRepair.Lock()
		if asyncRepair.running {
			asyncRepair.Unlock()
			http.Error(w, "a repair is already running; watch /warp/status", http.StatusConflict)
			return
		}
		asyncRepair.running = true
		asyncRepair.kind = kind
		asyncRepair.started = time.Now()
		asyncRepair.Unlock()
		go func() {
			rep, err := sys.RetroPatch(v.File, v.Patch)
			asyncRepair.Lock()
			asyncRepair.running = false
			asyncRepair.lastKind = kind
			if err != nil {
				asyncRepair.lastError = err.Error()
				asyncRepair.lastResult = ""
				log.Printf("async repair %q failed: %v", kind, err)
			} else {
				asyncRepair.lastError = ""
				asyncRepair.lastResult = rep.String()
				log.Printf("async repair %q done: %s", kind, rep.String())
			}
			asyncRepair.Unlock()
		}()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, "repair started; watch /warp/status for progress")
	})
	mux.HandleFunc("/warp/undo", func(w http.ResponseWriter, r *http.Request) {
		client := r.URL.Query().Get("client")
		visit, _ := strconv.ParseInt(r.URL.Query().Get("visit"), 10, 64)
		rep, err := sys.UndoVisit(client, visit, true)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "visit undone:", rep.String())
	})

	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.Handle("/debug/vars", expvar.Handler())
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("debug endpoints (expvar, pprof) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	// On shutdown, stop accepting requests before closing the store:
	// a request served after Close would be acknowledged but never
	// persisted. The final Close checkpoints, so the next start
	// recovers from the snapshot instead of replaying the whole WAL.
	srv := &http.Server{Addr: *addr, Handler: mux}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-sigs
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("draining connections: %v", err)
		}
		if err := sys.Close(); err != nil {
			log.Printf("closing store: %v", err)
		}
	}()

	log.Printf("GoWiki under WARP listening on %s (users: admin, alice, bob; passwords pw-<name>)", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-done // the drain goroutine checkpoints and closes the store
}
