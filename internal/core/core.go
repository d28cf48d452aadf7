// Package core wires WARP together (paper Figure 1): the logging HTTP
// server manager, the application runtime and its repair manager, the
// time-travel database, the browser log store, and the repair controller.
//
// During normal execution every HTTP request flows through HandleRequest,
// which runs the application, records the run and its queries as actions
// in the action history graph, and accounts log storage. Browser
// extensions upload per-visit event logs through UploadVisitLog.
//
// Repair (repair.go) is initiated by RetroPatch or UndoVisit and follows
// the paper's rollback-and-reexecute scheme over the graph.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/sqldb"
	"warp/internal/store"
	"warp/internal/ttdb"
	"warp/internal/vclock"
)

// Config carries tunables for a WARP deployment.
type Config struct {
	// Seed drives all simulated nondeterminism (tokens, client IDs).
	Seed int64
	// Replay selects browser re-execution fidelity; nil means full WARP
	// replay. The degraded configurations reproduce the paper's Table 4.
	Replay *browser.ReplayConfig
	// ClientLogQuota bounds the number of visit logs retained per client,
	// so one client cannot monopolize (or starve) server log space (§5.2).
	// 0 means the default of 100000.
	ClientLogQuota int
	// Trace, when set, receives a line for every repair-controller step —
	// the debugging view of what rollback-and-reexecute decided and why.
	Trace func(format string, args ...any)
	// Durability tunes the write-ahead log and snapshot store for
	// deployments created with Open (docs/persistence.md); New ignores
	// it. The zero value selects the store's defaults: windowed group
	// commit, 16 MiB segments, checkpoint every 64 MiB of WAL.
	Durability store.Options
}

// Warp is one WARP-managed web application deployment.
type Warp struct {
	Clock   *vclock.Clock
	DB      *ttdb.DB
	Runtime *app.Runtime
	Graph   *history.Graph

	cfg Config
	// stopTheWorld makes repairs suspend the deployment for their whole
	// span; set only by NewStopTheWorldBaseline.
	stopTheWorld bool
	rng          *rand.Rand
	// rngDraws counts values drawn from rng (browser seeds); persisted in
	// core/meta so a recovered deployment resumes the seeded stream
	// instead of re-issuing recovered client identities. Atomic so the
	// persister's RecordApplied observer — which runs under ttdb lock
	// scopes and must not take w.mu (core.GC holds w.mu while acquiring
	// scopes) — can read it when ordering cursor WAL records ahead of
	// mutation records.
	rngDraws atomic.Int64

	// mu guards the log stores and queues below. recordRun does not take
	// it: a request's record is published in the graph's own critical
	// section and the counters it advances are atomic.
	// suspendMu implements the brief repair cut-over suspension (§4.3):
	// requests hold it shared; Suspend takes it exclusively.
	// repairMu serializes repairs.
	mu        sync.Mutex
	suspendMu sync.RWMutex
	repairMu  sync.Mutex

	// Browser log store (§5.2): per-client visit logs under quota.
	visitLogs  map[string][]*browser.VisitLog
	visitByID  map[string]map[int64]*browser.VisitLog
	visitOrder []*browser.VisitLog // all logs in upload order

	// srvReqSeq numbers the exchanges of extensionless clients. (The
	// exchange → run and table → node lookups of repair are the graph's,
	// Graph.ExchangeActions and Graph.TableNodes, and collected with it.)
	srvReqSeq atomic.Int64

	// The graph handles of every partition, file and client cookie seen,
	// kept beside the values the record path already holds so it never
	// rebuilds a node name; bounded, like the graph's node table.
	nodeMu      sync.RWMutex
	partNodes   map[ttdb.Partition]history.Node
	fileNodes   map[string]history.Node
	cookieNodes map[string]history.Node

	// Cookie invalidation queue (§5.3) and conflict queue (§5.4).
	cookieInvalid map[string][]string
	conflicts     []browser.Conflict

	// Storage accounting (Table 6).
	browserLogBytes int
	appLogBytes     atomic.Int64
	dbLogBytes      atomic.Int64

	// Durable persistence (persist.go). pers is nil for in-memory
	// deployments (New); pendingIntent is the repair a crashed instance
	// left in flight; recovery summarizes what Open restored.
	pers          *persister
	pendingIntent *RepairIntent
	recovery      RecoveryStats

	// lastRepairTrace is the phase trace of the current (or most recent)
	// repair session; set only while obs is enabled. Atomic so Metrics
	// can read it live while a repair runs.
	lastRepairTrace atomic.Pointer[obs.Trace]

	// degraded is the terminal storage-fault record of a deployment in
	// degraded read-only mode (degraded.go), nil while healthy. Atomic
	// because write paths test it without taking Warp.mu.
	degraded atomic.Pointer[degradedState]

	// recoveredFileVersions is the file → version-count map the last
	// checkpoint recorded. The application re-registers its code after
	// Open (code is not persisted); StaleFiles compares the two so a
	// recovered deployment detects stale registration instead of
	// silently replaying with mismatched handlers.
	recoveredFileVersions map[string]int
}

// New creates a WARP deployment with a fresh clock, database, runtime, and
// history graph.
func New(cfg Config) *Warp {
	if cfg.ClientLogQuota == 0 {
		cfg.ClientLogQuota = 100000
	}
	if cfg.Replay == nil {
		full := browser.FullReplay
		cfg.Replay = &full
	}
	clock := &vclock.Clock{}
	db := ttdb.Open(clock)
	return &Warp{
		Clock:         clock,
		DB:            db,
		Runtime:       app.NewRuntime(db, cfg.Seed),
		Graph:         history.New(),
		cfg:           cfg,
		rng:           rand.New(rand.NewSource(cfg.Seed ^ 0x5741525f)),
		visitLogs:     make(map[string][]*browser.VisitLog),
		visitByID:     make(map[string]map[int64]*browser.VisitLog),
		partNodes:     make(map[ttdb.Partition]history.Node),
		fileNodes:     make(map[string]history.Node),
		cookieNodes:   make(map[string]history.Node),
		cookieInvalid: make(map[string][]string),
	}
}

// NewStopTheWorldBaseline is New for the reference side of the online-
// repair parity test and benchmark (internal/bench): its repairs restore
// the paper's stop-the-world behavior, suspending the deployment for the
// whole repair instead of only the final generation-switch commit
// window. The repair outcome is identical either way
// (TestOnlineRepairMatchesExclusive); deployments use New or Open.
func NewStopTheWorldBaseline(cfg Config) *Warp {
	w := New(cfg)
	w.stopTheWorld = true
	return w
}

// RunPayload is the graph payload for an application-run action.
type RunPayload struct {
	Rec *app.RunRecord
	// FileVersions holds the code versions the run used, so repair can
	// prune runs whose code is unchanged. It is the runtime's shared
	// snapshot of every file at the run's patch level (immutable; see
	// app.Runtime.FileVersions): consult it for Rec.FilesLoaded only.
	FileVersions map[string]int
	// QueryActions are the graph actions for the run's queries, fixed
	// when the run is published to the graph.
	QueryActions []history.ActionID
	// Superseded marks runs replaced or cancelled during a repair: their
	// recorded effects no longer describe the repaired timeline. Atomic
	// because live requests test it while a repair flags it.
	Superseded atomic.Bool
	// Repaired marks actions appended by repair itself.
	Repaired bool
}

// QueryPayload is the graph payload for a query action.
type QueryPayload struct {
	Rec       *ttdb.Record
	RunAction history.ActionID
	// Superseded is atomic for the same reason as RunPayload.Superseded.
	Superseded atomic.Bool
	Repaired   bool

	// run is the owning run's payload; Rec aliases run.Rec.Queries[i].
	// The persistence codec uses it to encode the alias as a reference
	// (codec.go) without a graph lookup.
	run *RunPayload
}

// exchangeOf names the HTTP exchange of a request that carries client
// identifiers (every replay-path request does).
func exchangeOf(req *httpd.Request) history.Exchange {
	return history.Exchange{Client: req.ClientID, Visit: req.VisitID, Request: req.RequestID}
}

// exchangeFor derives the HTTP exchange for a recorded request, assigning
// a server-side identifier to requests from extensionless clients (the
// paper's server-side request IDs, §7).
func (w *Warp) exchangeFor(req *httpd.Request) history.Exchange {
	if req.ClientID != "" {
		return exchangeOf(req)
	}
	return history.Exchange{Client: "srv", Request: w.srvReqSeq.Add(1)}
}

// HandleRequest serves one request under normal execution: route, run the
// application, record the run in the history graph. It is the Apache +
// WARP-logging-module path of Figure 1. Requests block briefly while a
// finishing repair cuts over (§4.3) but otherwise run concurrently with
// repair.
func (w *Warp) HandleRequest(req *httpd.Request) *httpd.Response {
	requestsTotal.Inc()
	if !obs.Enabled() {
		return w.handleRequest(req)
	}
	start := time.Now()
	resp := w.handleRequest(req)
	requestHist.Observe(time.Since(start))
	return resp
}

func (w *Warp) handleRequest(req *httpd.Request) *httpd.Response {
	w.suspendMu.RLock()
	defer w.suspendMu.RUnlock()

	// Cookie invalidation (§5.3): if repair left this client's replayed
	// cookie diverged, delete the cookie on its next contact.
	var invalidated []string
	if req.ClientID != "" {
		w.mu.Lock()
		if names, ok := w.cookieInvalid[req.ClientID]; ok {
			for _, n := range names {
				delete(req.Cookies, n)
			}
			invalidated = names
			delete(w.cookieInvalid, req.ClientID)
		}
		w.mu.Unlock()
	}

	file, ok := w.Runtime.RouteOf(req.Path)
	if !ok {
		return httpd.NotFound("no route for " + req.Path)
	}
	rec, err := w.Runtime.Run(file, req, nil, nil)
	if err != nil {
		return httpd.ServerError(err.Error())
	}
	w.recordRun(rec, false)
	resp := rec.Resp
	for _, n := range invalidated {
		resp.ClearCookie(n)
	}
	return resp
}

// recordRun appends a run and its queries to the action history graph;
// repaired flags actions produced by repair. The record is a handful of
// flat allocations — one array of actions, one of dependency edges, one
// of query payloads — built before the graph's lock is taken and
// published in one critical section (docs/performance.md "What one
// request records").
func (w *Warp) recordRun(rec *app.RunRecord, repaired bool) history.ActionID {
	if w.pers != nil {
		// Any fresh Token/RandInt draws this run made advanced the
		// runtime's nondeterminism cursor; log the new position *before*
		// the action records below, so in the log's recovered prefix an
		// action always implies the cursor state that produced its draws
		// (a hard crash cannot rewind the stream past values durable
		// state depends on).
		w.pers.logCursors(w.Runtime.RNGCursor(), w.rngDraws.Load())
	}
	req, nq := rec.Req, len(rec.Queries)
	ndeps := len(rec.FilesLoaded) + 4 // + the exchange and the cookie, read and written
	for _, q := range rec.Queries {
		ndeps += len(q.ReadPartitions) + len(q.WritePartitions)
	}
	acts := make([]history.Action, 1+nq)
	deps := make([]history.Dep, 0, ndeps)
	// since cuts the edges appended after mark off the shared array,
	// capped so a later AddDeps reallocates instead of overwriting.
	since := func(mark int) []history.Dep { return deps[mark:len(deps):len(deps)] }
	payload := &RunPayload{Rec: rec, FileVersions: w.Runtime.FileVersions(), Repaired: repaired}

	run := &acts[0]
	run.Kind, run.Time, run.Payload = history.KindAppRun, rec.Time, payload
	run.Exchange = w.exchangeFor(req)
	w.nodeMu.RLock() // one hold for every handle lookup below
	for _, f := range rec.FilesLoaded {
		deps = append(deps, history.Dep{Node: nodeIn(w, w.fileNodes, f, history.FileName, true), Time: rec.Time})
	}
	deps = append(deps, history.Dep{Node: history.ExchangeNode, Time: rec.Time})
	if req.ClientID != "" && len(req.Cookies) > 0 {
		deps = append(deps, history.Dep{Node: nodeIn(w, w.cookieNodes, req.ClientID, history.CookieName, true), Time: rec.Time})
	}
	run.Inputs = since(0)
	mark := len(deps)
	deps = append(deps, history.Dep{Node: history.ExchangeNode, Time: rec.Time})
	if req.ClientID != "" && rec.Resp != nil && (len(rec.Resp.SetCookies) > 0 || len(rec.Resp.ClearCookies) > 0) {
		deps = append(deps, history.Dep{Node: nodeIn(w, w.cookieNodes, req.ClientID, history.CookieName, true), Time: rec.Time})
	}
	run.Outputs = since(mark)

	qps := make([]QueryPayload, nq)
	payload.QueryActions = make([]history.ActionID, nq)
	for i, q := range rec.Queries {
		qp, qa := &qps[i], &acts[1+i]
		qp.Rec, qp.Repaired, qp.run = q, repaired, payload
		qa.Kind, qa.Time, qa.Payload = history.KindQuery, q.Time, qp
		mark = len(deps)
		for _, p := range q.ReadPartitions {
			deps = append(deps, history.Dep{Node: nodeIn(w, w.partNodes, p, partitionName, true), Time: q.Time})
		}
		qa.Inputs = since(mark)
		mark = len(deps)
		for _, p := range q.WritePartitions {
			deps = append(deps, history.Dep{Node: nodeIn(w, w.partNodes, p, partitionName, true), Time: q.Time})
		}
		qa.Outputs = since(mark)
	}
	w.nodeMu.RUnlock()
	appBytes, dbBytes := rec.ApproxLogBytes(), rec.DBLogBytes()

	runID := w.Graph.AppendRun(acts, func() {
		for i := range qps {
			qps[i].RunAction = run.ID
			payload.QueryActions[i] = acts[1+i].ID
		}
	})
	w.appLogBytes.Add(int64(appBytes))
	w.dbLogBytes.Add(int64(dbBytes))
	return runID
}

// nodeIn returns the graph handle cached in m under k, interning name(k)
// on first sight. held says the caller holds nodeMu for reading (recordRun
// takes one hold for all of a request's lookups); a miss drops and retakes
// that hold.
func nodeIn[K comparable](w *Warp, m map[K]history.Node, k K, name func(K) string, held bool) history.Node {
	if !held {
		w.nodeMu.RLock()
	}
	n, ok := m[k]
	if !held || !ok {
		w.nodeMu.RUnlock()
	}
	if !ok {
		n = w.Graph.Intern(name(k))
		w.nodeMu.Lock()
		m[k] = n
		w.nodeMu.Unlock()
		if held {
			w.nodeMu.RLock()
		}
	}
	return n
}

func partitionName(p ttdb.Partition) string { return history.PartitionName(p.String()) }

// partNode returns the graph handle of a partition's node.
func (w *Warp) partNode(p ttdb.Partition) history.Node {
	return nodeIn(w, w.partNodes, p, partitionName, false)
}

// UploadVisitLog receives a visit log from a client's browser extension
// and stores it in the per-client log store under quota (§5.2). The log
// object is shared with the live browser, which keeps appending events; in
// the real system uploads are periodic, and the in-process sharing models
// "upload before repair needs it".
func (w *Warp) UploadVisitLog(log *browser.VisitLog) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if log.ClientID == "" {
		return
	}
	visitLogsTotal.Inc()
	log.Time = w.Clock.Now()
	w.insertVisitLogLocked(log)
	if w.pers != nil {
		w.pers.logVisit(log)
	}
}

// insertVisitLogLocked stores one visit log in the per-client stores
// under quota. Shared by live uploads and WAL recovery so the quota and
// accounting rules cannot drift apart. Caller holds w.mu.
func (w *Warp) insertVisitLogLocked(log *browser.VisitLog) {
	logs := w.visitLogs[log.ClientID]
	if len(logs) >= w.cfg.ClientLogQuota {
		// Quota: drop the oldest log for this client, so one client cannot
		// cause collection of others' entries (§5.2).
		drop := logs[0]
		logs = logs[1:]
		delete(w.visitByID[log.ClientID], drop.VisitID)
	}
	w.visitLogs[log.ClientID] = append(logs, log)
	byID, ok := w.visitByID[log.ClientID]
	if !ok {
		byID = make(map[int64]*browser.VisitLog)
		w.visitByID[log.ClientID] = byID
	}
	byID[log.VisitID] = log
	w.visitOrder = append(w.visitOrder, log)
	w.browserLogBytes += log.ApproxLogBytes()
}

// NewBrowser creates a client browser wired to this deployment: its
// transport is the WARP server and its extension uploads logs here.
func (w *Warp) NewBrowser() *browser.Browser {
	w.mu.Lock()
	draws := w.rngDraws.Add(1)
	rng := rand.New(rand.NewSource(w.rng.Int63()))
	w.mu.Unlock()
	if w.pers != nil {
		w.pers.logCursors(w.Runtime.RNGCursor(), draws)
	}
	return browser.New(w.HandleRequest, w.UploadVisitLog, rng)
}

// StaleFiles returns the source files whose currently registered version
// count is behind what the recovered checkpoint recorded — evidence that
// the application re-registered older code than the deployment was
// running when it went down (e.g. a retroactive patch not yet
// re-applied). Repair refuses to run while any file is stale, since
// re-executing recorded runs through mismatched handlers would silently
// corrupt the repaired timeline; re-Patch the files (or resume the
// pending patch intent) to clear them.
func (w *Warp) StaleFiles() []string {
	var out []string
	for f, recorded := range w.recoveredFileVersions {
		if w.Runtime.FileVersion(f) < recorded {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// Suspend blocks request processing until Resume: the brief cut-over
// suspension at the end of repair (§4.3). In-flight requests complete
// first.
func (w *Warp) Suspend() { w.suspendMu.Lock() }

// Resume re-enables request processing.
func (w *Warp) Resume() { w.suspendMu.Unlock() }

// Conflicts returns the queued conflicts awaiting user resolution (§5.4).
func (w *Warp) Conflicts() []browser.Conflict {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]browser.Conflict{}, w.conflicts...)
}

// ConflictsFor returns the queued conflicts for one client, the set shown
// on the user's conflict resolution page when they next log in.
func (w *Warp) ConflictsFor(clientID string) []browser.Conflict {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []browser.Conflict
	for _, c := range w.conflicts {
		if c.Client == clientID {
			out = append(out, c)
		}
	}
	return out
}

// PendingCookieInvalidation reports whether a client's cookies are queued
// for deletion (§5.3).
func (w *Warp) PendingCookieInvalidation(clientID string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.cookieInvalid[clientID]
	return ok
}

// ResolveConflictByCancel implements the paper's conflict resolution UI
// (§5.4, §6): the user, shown a queued conflict for one of their page
// visits, chooses to cancel that visit altogether — all of its HTTP
// requests are undone in a new repair, and the conflict is dequeued.
// Canceling one's own conflicted visit is permitted even when it
// propagates conflicts to other users (§5.5's exception).
func (w *Warp) ResolveConflictByCancel(clientID string, visitID int64) (*Report, error) {
	w.mu.Lock()
	found := false
	rest := w.conflicts[:0]
	for _, c := range w.conflicts {
		if c.Client == clientID && c.VisitID == visitID {
			found = true
			continue
		}
		rest = append(rest, c)
	}
	w.conflicts = rest
	w.mu.Unlock()
	if !found {
		return nil, fmt.Errorf("warp: no queued conflict for %s/%d", clientID, visitID)
	}
	// The §5.5 exception: resolving one's own reported conflict may cancel
	// even if that creates conflicts for others, so this runs with
	// administrator-strength undo. The dequeue marker travels with the
	// durable repair intent so a crashed resolution resumes completely.
	return w.undoVisit(clientID, visitID, true, true)
}

// StorageStats reports log storage by layer, the Table 6 accounting.
type StorageStats struct {
	BrowserLogBytes int
	AppLogBytes     int
	DBLogBytes      int
	DBRowBytes      int
	PageVisits      int
}

// Storage returns current storage statistics.
func (w *Warp) Storage() StorageStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return StorageStats{
		BrowserLogBytes: w.browserLogBytes,
		AppLogBytes:     int(w.appLogBytes.Load()),
		DBLogBytes:      int(w.dbLogBytes.Load()),
		DBRowBytes:      w.DB.Stats().ApproxBytes,
		PageVisits:      len(w.visitOrder),
	}
}

// Metrics is the observability snapshot: every registered obs metric
// (latency histograms, progress gauges, throughput counters across
// sqldb/ttdb/store/core), the engine's execution counters read out of
// that same snapshot, and — when obs is enabled and a repair has run —
// the phase trace of the current or most recent repair session. Like the
// registry, Exec is process-wide.
type Metrics struct {
	Exec   sqldb.ExecStats
	Obs    obs.Snapshot
	Repair *obs.TraceSnapshot
}

// Metrics snapshots the deployment's observability state. Safe to call
// at any time, including while a repair is running — the repair trace
// reflects live phase progress.
func (w *Warp) Metrics() Metrics {
	snap := obs.Default.Snapshot()
	m := Metrics{Exec: sqldb.ExecStatsOf(snap), Obs: snap}
	if tr := w.lastRepairTrace.Load(); tr != nil {
		s := tr.Snapshot()
		m.Repair = &s
	}
	return m
}

// GC discards history older than beforeTime from both the database and
// the graph, moving both horizons together (§4.2).
func (w *Warp) GC(beforeTime int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.DB.GC(beforeTime); err != nil {
		return err
	}
	w.Graph.GC(beforeTime)
	return nil
}

// visitsOfClient returns a client's visit logs in upload order.
func (w *Warp) visitsOfClient(clientID string) []*browser.VisitLog {
	return w.visitLogs[clientID]
}

// childVisits returns the visits created from a parent visit, in order.
func (w *Warp) childVisits(clientID string, parentVisit int64) []*browser.VisitLog {
	var out []*browser.VisitLog
	for _, v := range w.visitLogs[clientID] {
		if v.ParentVisit == parentVisit {
			out = append(out, v)
		}
	}
	return out
}
